/**
 * @file
 * Data-Driven Clock Gating (DDCG) — after Sarkar, Bhattacharyya &
 * Mallick, "Data driven clock gating for digital filters" family of
 * per-flip-flop techniques (arXiv 1806.02271): a flip-flop whose next
 * state equals its current state does not need a clock edge, and an
 * XOR of D against Q can detect that *in the same cycle*, with no
 * advance knowledge at all.
 *
 * Relationship to DCG (the paper): DCG derives gate control from
 * piped GRANT signals, which only exist for the back-end latch phases
 * (latchPhaseGateable); DDCG's comparator sits at the latch input, so
 * it gates *every* phase, front end included — but it pays for a
 * comparator on every guarded bit every cycle, while DCG's control
 * overhead is a handful of extended latch bits.
 *
 * Model: two deterministic terms per cycle.
 *  - Slot level: a slot with no in-flight value this cycle has D == Q
 *    for all its bits, so the whole slot's clock stays low — exactly
 *    width - flux slots in every phase.
 *  - Bit level: within clocked (active) slots, the fraction of bits
 *    whose next state differs is the switching activity of the data
 *    path (kBitActivityFactor, 0.45, in ddcg.cc); the rest of the
 *    bits are held. The activity factor is a fixed model parameter
 *    (operand bit-level simulation is outside this simulator's
 *    scope), so the decision stays deterministic and byte-stable.
 *
 * Both terms satisfy the determinism invariant by construction: a
 * gated slot has zero flux, and a gated bit is one whose next state
 * is unchanged — neither can be a "used" block. The comparator
 * overhead (kCompareOverhead, 0.08 x latchBitCap per guarded bit per
 * cycle: an XOR plus a latch on the enable) is charged to the
 * DdcgCompare power component and counted inside the Figure-14 latch
 * group.
 *
 * DDCG gates only latches: execution units, D-cache decoders, result
 * buses and the issue queue all see baseline clocks.
 */

#ifndef DCG_GATING_DDCG_HH
#define DCG_GATING_DDCG_HH

#include "common/stats.hh"
#include "gating/policy.hh"

namespace dcg {

class DdcgController : public GatingPolicy
{
  public:
    DdcgController(const CoreConfig &core_cfg, StatRegistry &stats);

    GateState gates(const CycleActivity &act) override;

    void skipIdle(Core &core, std::uint64_t cycles,
                  IdleSink &sink) override;

    const char *name() const override { return "ddcg"; }

  private:
    CoreConfig coreCfg;

    Counter &gatedSlots;
    Counter &clockedSlots;
};

} // namespace dcg

#endif // DCG_GATING_DDCG_HH
