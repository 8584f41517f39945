/** Tests for the Data-Driven Clock Gating controller. */

#include <gtest/gtest.h>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "gating/ddcg.hh"
#include "pipeline/core.hh"
#include "power/model.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"

using namespace dcg;

namespace {

struct DdcgRig
{
    explicit DdcgRig(const std::string &bench, std::uint64_t seed = 1)
        : gen(profileByName(bench), seed),
          mem(HierarchyConfig{}, stats),
          bpred(BranchPredictorConfig{}, stats),
          core(CoreConfig{}, gen, mem, bpred, stats),
          controller(CoreConfig{}, stats)
    {
    }

    StatRegistry stats;
    TraceGenerator gen;
    MemoryHierarchy mem;
    BranchPredictor bpred;
    Core core;
    DdcgController controller;
};

} // namespace

TEST(Ddcg, NeverGatesAUsedSlot)
{
    // The determinism invariant, DDCG flavour: a slot is gated only
    // when it has zero flux (D == Q on every bit), so gated + used can
    // never exceed the machine width in any phase.
    DdcgRig rig("twolf");
    const CoreConfig cfg;
    for (int i = 0; i < 30000; ++i) {
        rig.core.tick();
        const CycleActivity &act = rig.core.activity();
        const GateState g = rig.controller.gates(act);
        for (unsigned p = 0; p < kNumLatchPhases; ++p)
            ASSERT_LE(g.latchSlotsGated[p] + act.latchFlux[p],
                      cfg.issueWidth);
    }
}

TEST(Ddcg, GatesEveryIdleSlotInEveryPhase)
{
    // Unlike DCG, the comparator needs no advance notice, so even the
    // front-end phases gate exactly width - flux slots.
    DdcgRig rig("gzip");
    const CoreConfig cfg;
    for (int i = 0; i < 10000; ++i) {
        rig.core.tick();
        const CycleActivity &act = rig.core.activity();
        const GateState g = rig.controller.gates(act);
        for (unsigned p = 0; p < kNumLatchPhases; ++p)
            ASSERT_EQ(g.latchSlotsGated[p] + act.latchFlux[p],
                      cfg.issueWidth);
    }
}

TEST(Ddcg, ChargesComparatorAndBitGating)
{
    DdcgRig rig("gzip");
    rig.core.tick();
    const GateState g = rig.controller.gates(rig.core.activity());
    EXPECT_DOUBLE_EQ(g.latchBitGatedFraction, 1.0 - 0.45);
    EXPECT_DOUBLE_EQ(g.latchCompareOverhead, 0.08);
    // DDCG is a latch-only scheme: everything else sees base clocks.
    for (unsigned t = 0; t < kNumFuTypes; ++t)
        EXPECT_EQ(g.fuGateMask[t], 0u);
    EXPECT_EQ(g.dcachePortsGated, 0u);
    EXPECT_EQ(g.resultBusesGated, 0u);
    EXPECT_DOUBLE_EQ(g.iqGatedFraction, 0.0);
    EXPECT_FALSE(g.dcgControlActive);
}

TEST(Ddcg, ZeroPerformanceImpact)
{
    // Like DCG, the comparators observe the datapath without stalling
    // it: committed-instruction counts are bit-exact with and without.
    DdcgRig with_ddcg("parser", 3);
    DdcgRig without("parser", 3);
    PowerModel pm(CoreConfig{}, Technology{}, with_ddcg.stats);
    for (int i = 0; i < 40000; ++i) {
        with_ddcg.core.tick();
        pm.tick(with_ddcg.core.activity(),
                with_ddcg.controller.gates(with_ddcg.core.activity()));
        without.core.tick();
    }
    EXPECT_EQ(with_ddcg.core.committedInsts(),
              without.core.committedInsts());
}

TEST(Ddcg, SavesLatchEnergyNetOfComparators)
{
    // The headline claim: slot- plus bit-level gating buys more than
    // the per-bit comparators cost, with the defaults.
    const Profile p = profileByName("gzip");

    auto run = [&](bool ddcg) {
        StatRegistry stats;
        TraceGenerator gen(p, 5);
        MemoryHierarchy mem(HierarchyConfig{}, stats);
        BranchPredictor bp(BranchPredictorConfig{}, stats);
        Core core(CoreConfig{}, gen, mem, bp, stats);
        DdcgController ctl(CoreConfig{}, stats);
        PowerModel pm(CoreConfig{}, Technology{}, stats);
        for (int i = 0; i < 30000; ++i) {
            core.tick();
            pm.tick(core.activity(),
                    ddcg ? ctl.gates(core.activity()) : GateState{});
        }
        return pm.totalEnergyPJ();
    };

    EXPECT_LT(run(true), run(false));
}

TEST(Ddcg, SlotCountersAccumulate)
{
    DdcgRig rig("mcf");  // mostly idle machine -> lots of gating
    for (int i = 0; i < 5000; ++i) {
        rig.core.tick();
        rig.controller.gates(rig.core.activity());
    }
    EXPECT_GT(rig.stats.lookup("ddcg.gated_latch_slots"), 1000.0);
    EXPECT_GT(rig.stats.lookup("ddcg.clocked_latch_slots"), 0.0);
}
