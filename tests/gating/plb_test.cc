/** Tests for the Pipeline Balancing controller. */

#include <gtest/gtest.h>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "gating/plb.hh"
#include "pipeline/core.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"

using namespace dcg;

namespace {

/** Drive the controller with a fixed per-cycle issue count. */
void
feedWindows(PlbController &ctl, Core &core, unsigned issued_per_cycle,
            unsigned windows, unsigned window_cycles = 256)
{
    CycleActivity act;
    act.issued = static_cast<std::uint8_t>(issued_per_cycle);
    for (unsigned w = 0; w < windows; ++w) {
        for (unsigned c = 0; c < window_cycles; ++c) {
            ctl.beginCycle(core);
            ctl.gates(act);
        }
    }
}

struct Rig
{
    explicit Rig(bool extended = false)
        : gen(profileByName("gzip"), 1),
          mem(HierarchyConfig{}, stats),
          bpred(BranchPredictorConfig{}, stats),
          core(CoreConfig{}, gen, mem, bpred, stats),
          ctl(CoreConfig{}, PlbConfig{}, extended, stats)
    {
    }

    StatRegistry stats;
    TraceGenerator gen;
    MemoryHierarchy mem;
    BranchPredictor bpred;
    Core core;
    PlbController ctl;
};

} // namespace

TEST(Plb, StartsInNormalMode)
{
    Rig rig;
    EXPECT_EQ(rig.ctl.mode(), 8u);
}

TEST(Plb, HighIpcStaysWide)
{
    Rig rig;
    feedWindows(rig.ctl, rig.core, 6, 10);
    EXPECT_EQ(rig.ctl.mode(), 8u);
    EXPECT_EQ(rig.core.issueWidthLimit(), 8u);
}

TEST(Plb, LowIpcNarrowsAfterConfirmation)
{
    Rig rig;
    // One low window is not enough (mode history damping)...
    feedWindows(rig.ctl, rig.core, 1, 1);
    rig.ctl.beginCycle(rig.core);  // boundary processing
    EXPECT_EQ(rig.ctl.mode(), 8u);
    // ...two consecutive low windows confirm the transition.
    feedWindows(rig.ctl, rig.core, 1, 2);
    EXPECT_EQ(rig.ctl.mode(), 4u);
    EXPECT_EQ(rig.core.issueWidthLimit(), 4u);
}

TEST(Plb, MidIpcSelectsSixWide)
{
    Rig rig;
    feedWindows(rig.ctl, rig.core, 2, 4);
    EXPECT_EQ(rig.ctl.mode(), 6u);
    EXPECT_EQ(rig.core.issueWidthLimit(), 6u);
    EXPECT_EQ(rig.core.fuPool().enabledCount(FuType::IntAluUnit), 5u);
    EXPECT_EQ(rig.core.fuPool().enabledCount(FuType::FpAluUnit), 3u);
    // Sec 4.3: cache ports are left intact in 6-wide mode.
    EXPECT_EQ(rig.core.dcachePortLimit(), 2u);
}

TEST(Plb, WidensImmediatelyOnHighIpc)
{
    Rig rig;
    feedWindows(rig.ctl, rig.core, 1, 4);
    ASSERT_EQ(rig.ctl.mode(), 4u);
    feedWindows(rig.ctl, rig.core, 7, 1);
    rig.ctl.beginCycle(rig.core);
    EXPECT_EQ(rig.ctl.mode(), 8u);
}

TEST(Plb, FourWideDisablesTable43Resources)
{
    Rig rig;
    feedWindows(rig.ctl, rig.core, 1, 4);
    ASSERT_EQ(rig.ctl.mode(), 4u);
    EXPECT_EQ(rig.core.fuPool().enabledCount(FuType::IntAluUnit), 3u);
    EXPECT_EQ(rig.core.fuPool().enabledCount(FuType::IntMulDivUnit), 1u);
    EXPECT_EQ(rig.core.fuPool().enabledCount(FuType::FpAluUnit), 2u);
    EXPECT_EQ(rig.core.fuPool().enabledCount(FuType::FpMulDivUnit), 2u);
    // PLB-orig keeps both cache ports even in 4-wide mode.
    EXPECT_EQ(rig.core.dcachePortLimit(), 2u);
}

TEST(Plb, ExtendedVariantDropsPortAndBuses)
{
    Rig rig(true);
    feedWindows(rig.ctl, rig.core, 1, 4);
    ASSERT_EQ(rig.ctl.mode(), 4u);
    EXPECT_EQ(rig.core.dcachePortLimit(), 1u);
    EXPECT_EQ(rig.core.resultBusLimit(), 4u);
}

TEST(Plb, FpGuardPreventsFourWide)
{
    Rig rig;
    CycleActivity act;
    act.issued = 1;
    act.fpIssued = 1;  // heavy FP traffic relative to the guard
    for (unsigned w = 0; w < 5; ++w) {
        for (unsigned c = 0; c < 256; ++c) {
            rig.ctl.beginCycle(rig.core);
            rig.ctl.gates(act);
        }
    }
    EXPECT_EQ(rig.ctl.mode(), 6u);  // held at 6-wide by the FP trigger
}

TEST(Plb, GatesDisabledUnitsAndIqSlice)
{
    Rig rig;
    feedWindows(rig.ctl, rig.core, 1, 4);
    ASSERT_EQ(rig.ctl.mode(), 4u);
    CycleActivity idle;
    const GateState g = rig.ctl.gates(idle);
    // 4-wide: int ALUs 3..5 gated.
    EXPECT_EQ(g.fuGateMask[static_cast<unsigned>(FuType::IntAluUnit)],
              0b111000u);
    EXPECT_DOUBLE_EQ(g.iqGatedFraction, 0.5);
    // PLB-orig does not gate latches or buses.
    for (unsigned p = 0; p < kNumLatchPhases; ++p)
        EXPECT_EQ(g.latchSlotsGated[p], 0u);
    EXPECT_EQ(g.resultBusesGated, 0u);
}

TEST(Plb, ExtGatesLatchesPortsBuses)
{
    Rig rig(true);
    feedWindows(rig.ctl, rig.core, 1, 4);
    ASSERT_EQ(rig.ctl.mode(), 4u);
    CycleActivity idle;
    const GateState g = rig.ctl.gates(idle);
    for (unsigned p = 0; p < kNumLatchPhases; ++p)
        EXPECT_EQ(g.latchSlotsGated[p], 4u);  // 8 - 4
    EXPECT_EQ(g.dcachePortsGated, 1u);
    EXPECT_EQ(g.resultBusesGated, 4u);
}

TEST(Plb, NeverGatesBusyUnitsEvenWhenDisabled)
{
    Rig rig(true);
    feedWindows(rig.ctl, rig.core, 1, 4);
    ASSERT_EQ(rig.ctl.mode(), 4u);
    // A disabled unit still draining a pre-switch op must not be gated.
    CycleActivity act;
    act.fuBusyMask[static_cast<unsigned>(FuType::IntAluUnit)] = 0b100000;
    act.latchFlux[5] = 6;
    act.resultBusUsed = 6;
    const GateState g = rig.ctl.gates(act);
    EXPECT_EQ(g.fuGateMask[static_cast<unsigned>(FuType::IntAluUnit)] &
              0b100000u, 0u);
    EXPECT_LE(g.latchSlotsGated[5] + act.latchFlux[5], 8u);
    EXPECT_LE(g.resultBusesGated + act.resultBusUsed, 8u);
}

TEST(Plb, WindowAndTransitionStatsWired)
{
    Rig rig;
    feedWindows(rig.ctl, rig.core, 1, 4);
    feedWindows(rig.ctl, rig.core, 7, 2);
    EXPECT_GT(rig.stats.lookup("plb.windows_4wide"), 0.0);
    EXPECT_GT(rig.stats.lookup("plb.windows_8wide"), 0.0);
    EXPECT_GE(rig.stats.lookup("plb.mode_transitions"), 2.0);
}

TEST(Plb, NamesDistinguishVariants)
{
    StatRegistry s1, s2;
    PlbController a(CoreConfig{}, PlbConfig{}, false, s1);
    PlbController b(CoreConfig{}, PlbConfig{}, true, s2);
    EXPECT_STREQ(a.name(), "plb-orig");
    EXPECT_STREQ(b.name(), "plb-ext");
}
