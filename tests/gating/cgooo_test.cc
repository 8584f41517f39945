/** Tests for the CG-OoO coarse-grain issue-queue gating controller. */

#include <gtest/gtest.h>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "gating/cgooo.hh"
#include "pipeline/core.hh"
#include "power/model.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"

using namespace dcg;

namespace {

CgoooController
makeController(StatRegistry &stats)
{
    return CgoooController(CoreConfig{}, stats);
}

} // namespace

TEST(Cgooo, BlockCountFollowsOccupancy)
{
    // 128-entry window / 16-entry blocks = 8 blocks; the rename-width
    // reserve (8 entries) keeps this cycle's arrivals un-gated.
    StatRegistry stats;
    CgoooController ctl = makeController(stats);

    CycleActivity act;
    act.iqOccupied = 0;
    GateState g = ctl.gates(act);
    // 0 + 8 reserve -> 1 active block of 8.
    EXPECT_DOUBLE_EQ(g.iqGatedFraction, 7.0 / 8.0);
    EXPECT_DOUBLE_EQ(g.iqWakeupScale, 1.0 / 8.0);

    act.iqOccupied = 40;
    g = ctl.gates(act);
    // 40 + 8 = 48 entries -> 3 active blocks.
    EXPECT_DOUBLE_EQ(g.iqGatedFraction, 5.0 / 8.0);
    EXPECT_DOUBLE_EQ(g.iqWakeupScale, 3.0 / 8.0);

    act.iqOccupied = 128;  // full window: nothing gateable
    g = ctl.gates(act);
    EXPECT_DOUBLE_EQ(g.iqGatedFraction, 0.0);
    EXPECT_DOUBLE_EQ(g.iqWakeupScale, 1.0);
}

TEST(Cgooo, NeverGatesAResidentBlock)
{
    // Determinism invariant, block flavour: the active-block count
    // always covers occupancy plus a full rename group, so a gated
    // block can hold neither a resident nor one of this cycle's
    // arrivals.
    StatRegistry stats;
    CgoooController ctl = makeController(stats);
    const CoreConfig cfg;
    for (unsigned occ = 0; occ <= cfg.windowSize; ++occ) {
        CycleActivity act;
        act.iqOccupied = occ;
        const GateState g = ctl.gates(act);
        const double active_frac = 1.0 - g.iqGatedFraction;
        const double covered = active_frac * cfg.windowSize;
        EXPECT_GE(covered + 1e-9,
                  std::min(occ + cfg.renameWidth, cfg.windowSize))
            << "occupancy " << occ;
    }
}

TEST(Cgooo, SchedulerOverheadScalesWithActiveBlocks)
{
    StatRegistry stats;
    CgoooController ctl = makeController(stats);

    CycleActivity act;
    act.iqOccupied = 0;
    EXPECT_DOUBLE_EQ(ctl.gates(act).iqSchedOverhead, 0.04 / 8.0);
    act.iqOccupied = 128;
    EXPECT_DOUBLE_EQ(ctl.gates(act).iqSchedOverhead, 0.04);
}

TEST(Cgooo, LeavesEverythingOutsideTheQueueAlone)
{
    StatRegistry stats;
    CgoooController ctl = makeController(stats);
    CycleActivity act;
    act.iqOccupied = 40;
    const GateState g = ctl.gates(act);
    for (unsigned t = 0; t < kNumFuTypes; ++t)
        EXPECT_EQ(g.fuGateMask[t], 0u);
    for (unsigned p = 0; p < kNumLatchPhases; ++p)
        EXPECT_EQ(g.latchSlotsGated[p], 0u);
    EXPECT_EQ(g.dcachePortsGated, 0u);
    EXPECT_EQ(g.resultBusesGated, 0u);
    EXPECT_FALSE(g.dcgControlActive);
}

TEST(Cgooo, ZeroPerformanceImpactAndIqSavings)
{
    // Block gating observes occupancy without stalling the pipeline,
    // and the wakeup/clock savings beat the per-block scheduler cost
    // on a real workload (the queue is rarely full).
    const Profile p = profileByName("gzip");

    auto run = [&](bool gate, std::uint64_t &committed) {
        StatRegistry stats;
        TraceGenerator gen(p, 5);
        MemoryHierarchy mem(HierarchyConfig{}, stats);
        BranchPredictor bp(BranchPredictorConfig{}, stats);
        Core core(CoreConfig{}, gen, mem, bp, stats);
        CgoooController ctl(CoreConfig{}, stats);
        PowerModel pm(CoreConfig{}, Technology{}, stats);
        for (int i = 0; i < 30000; ++i) {
            core.tick();
            pm.tick(core.activity(),
                    gate ? ctl.gates(core.activity()) : GateState{});
        }
        committed = core.committedInsts();
        return pm.totalEnergyPJ();
    };

    std::uint64_t with_commits = 0, without_commits = 0;
    const double with = run(true, with_commits);
    const double without = run(false, without_commits);
    EXPECT_EQ(with_commits, without_commits);
    EXPECT_LT(with, without);
}

TEST(Cgooo, BlockCountersAccumulate)
{
    StatRegistry stats;
    CgoooController ctl = makeController(stats);
    CycleActivity act;
    act.iqOccupied = 40;
    for (int i = 0; i < 100; ++i)
        ctl.gates(act);
    EXPECT_DOUBLE_EQ(stats.lookup("cgooo.active_blocks"), 300.0);
    EXPECT_DOUBLE_EQ(stats.lookup("cgooo.gated_blocks"), 500.0);
}
