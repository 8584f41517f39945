/**
 * @file
 * CG-OoO-style coarse-grain issue-queue gating — after Mohammadi,
 * Han, Heo & Mahlke, "CG-OoO: Energy-Efficient Coarse-Grain
 * Out-of-Order Execution" (arXiv 1606.01607): the monolithic issue
 * window is split into fixed-size blocks with a cheap per-block
 * scheduler; a block holding no instructions is clock-gated whole,
 * and the wakeup broadcast is driven only into active blocks instead
 * of the full CAM.
 *
 * Model over the existing activity wheel: block residency is derived
 * from the issue-queue occupancy the core reports each cycle. The
 * model assumes compacted allocation (instructions occupy the
 * lowest-numbered blocks) — the deterministic idealisation of
 * CG-OoO's block allocator — so
 *
 *     active = ceil(min(occupied + renameWidth, windowSize) / block)
 *
 * blocks are clocked and the rest are gated. The renameWidth reserve
 * mirrors DCG's issue-queue extension ([6]): this cycle's dispatches
 * were not known when the gate control was set up, so enough blocks
 * for a full rename group stay enabled. That makes the decision
 * deterministic — a gated block can hold neither a resident
 * instruction nor one of this cycle's arrivals, so a gated block is
 * never a used block.
 *
 * Blocks hold kBlockSize (16) entries, so the Table-1 window has 8.
 *
 * Energy: gated blocks drop their share of the queue clock/precharge
 * (iqGatedFraction); the wakeup broadcast scales by the active-block
 * fraction (iqWakeupScale); the per-block scheduler costs
 * kSchedOverhead (0.04) x iqClockCap scaled by the same fraction
 * (iqSchedOverhead, charged to the CgoooSched component). Both
 * constants live in cgooo.cc. Latches, execution units, D-cache and
 * result buses see baseline clocks.
 */

#ifndef DCG_GATING_CGOOO_HH
#define DCG_GATING_CGOOO_HH

#include "common/stats.hh"
#include "gating/policy.hh"

namespace dcg {

class CgoooController : public GatingPolicy
{
  public:
    CgoooController(const CoreConfig &core_cfg, StatRegistry &stats);

    GateState gates(const CycleActivity &act) override;

    void skipIdle(Core &core, std::uint64_t cycles,
                  IdleSink &sink) override;

    const char *name() const override { return "cgooo"; }

  private:
    CoreConfig coreCfg;
    unsigned numBlocks;

    Counter &activeBlocks;
    Counter &gatedBlocks;
};

} // namespace dcg

#endif // DCG_GATING_CGOOO_HH
