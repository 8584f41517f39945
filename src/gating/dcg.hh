/**
 * @file
 * Deterministic Clock Gating — the paper's contribution.
 *
 * Hardware view (Section 3): selection-logic GRANT signals and a
 * one-hot encoding of issued slots are latched into small extensions of
 * the pipeline latches and piped alongside the instructions; ANDing
 * them with the clock gates execution units (select X -> use X+2),
 * back-end latch slots, D-cache wordline decoders (load at X -> cache
 * at X+3) and result-bus drivers (execute X -> writeback X+2).
 *
 * Simulator view: the core writes every scheduled resource use into the
 * ActivityWheel *at issue time*, with per-component minimum-advance
 * assertions (see pipeline/activity.hh). By the time a cycle executes,
 * its activity record is exactly the information the piped GRANT bits
 * would carry, so the controller gates precisely the resources the
 * record shows unused. The determinism property — a gated block is
 * never a used block — is asserted every cycle in the power model and
 * verified by the test suite.
 *
 * The controller charges its own overhead: the extended latch bits are
 * clocked every cycle (dcgControlActive), about 1 % of latch power as
 * in the paper (Sec 5.3).
 */

#ifndef DCG_GATING_DCG_HH
#define DCG_GATING_DCG_HH

#include <array>

#include "common/stats.hh"
#include "gating/policy.hh"

namespace dcg {

/**
 * DCG always gates its four targets — execution units, back-end
 * latches, D-cache decoders and result buses (Sec 3); Figures 12-16
 * report each target's saving separately.
 */
struct DcgConfig
{
    /**
     * Extension: also gate empty issue-queue entries, after the
     * deterministic scheme of [6] (Folegnani & Gonzalez) that the
     * paper cites in Sec 2.2.2. Off by default — the paper's DCG
     * configuration leaves the issue queue alone; bench/ablation_iq
     * measures the combination (dcgsim --gate-iq, JobSpec gate_iq).
     */
    bool gateIssueQueue = false;
};

class DcgController : public GatingPolicy
{
  public:
    DcgController(const CoreConfig &core_cfg, const DcgConfig &cfg,
                  StatRegistry &stats);

    GateState gates(const CycleActivity &act) override;

    void skipIdle(Core &core, std::uint64_t cycles,
                  IdleSink &sink) override;

    const char *name() const override { return "dcg"; }

    /**
     * Gate-control transitions (gated<->enabled) per FU type so far.
     * The sequential-priority policy (Sec 3.1) exists to minimise
     * these; bench/ablation_priority measures the effect.
     */
    std::uint64_t fuToggles(FuType type) const
    { return toggles[static_cast<unsigned>(type)]->value(); }

  private:
    CoreConfig coreCfg;
    DcgConfig cfg;

    /** Previous cycle's gate mask, for toggle accounting. */
    std::array<std::uint16_t, kNumFuTypes> prevMask{};
    std::array<Counter *, kNumFuTypes> toggles{};

    Counter &gatedFuCycles;
    Counter &gatedLatchSlots;
    Counter &gatedPorts;
    Counter &gatedBuses;
};

} // namespace dcg

#endif // DCG_GATING_DCG_HH
