/** Tests for the Deterministic Clock Gating controller. */

#include <gtest/gtest.h>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "gating/dcg.hh"
#include "pipeline/core.hh"
#include "power/model.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"

using namespace dcg;

namespace {

struct SimRig
{
    explicit SimRig(const std::string &bench, std::uint64_t seed = 1)
        : gen(profileByName(bench), seed),
          mem(HierarchyConfig{}, stats),
          bpred(BranchPredictorConfig{}, stats),
          core(CoreConfig{}, gen, mem, bpred, stats),
          controller(CoreConfig{}, DcgConfig{}, stats)
    {
    }

    StatRegistry stats;
    TraceGenerator gen;
    MemoryHierarchy mem;
    BranchPredictor bpred;
    Core core;
    DcgController controller;
};

} // namespace

TEST(Dcg, NeverGatesAUsedResource)
{
    // The defining property (Sec 1): DCG "guarantees no performance
    // loss" because gated blocks are known-unused. Checked per cycle
    // across a mixed workload.
    SimRig rig("twolf");
    const CoreConfig cfg;
    for (int i = 0; i < 30000; ++i) {
        rig.core.tick();
        const CycleActivity &act = rig.core.activity();
        const GateState g = rig.controller.gates(act);
        for (unsigned t = 0; t < kNumFuTypes; ++t)
            ASSERT_EQ(g.fuGateMask[t] & act.fuBusyMask[t], 0u);
        for (unsigned p = 0; p < kNumLatchPhases; ++p)
            ASSERT_LE(g.latchSlotsGated[p] + act.latchFlux[p],
                      cfg.issueWidth);
        ASSERT_LE(g.dcachePortsGated + act.dcachePortsUsed,
                  cfg.dcachePorts);
        ASSERT_LE(g.resultBusesGated + act.resultBusUsed,
                  cfg.numResultBuses);
    }
}

TEST(Dcg, GatesEverythingUnused)
{
    // Complementary property: DCG has no lost opportunity on the
    // blocks it manages (Sec 1, advantage (1)).
    SimRig rig("gzip");
    const CoreConfig cfg;
    for (int i = 0; i < 10000; ++i) {
        rig.core.tick();
        const CycleActivity &act = rig.core.activity();
        const GateState g = rig.controller.gates(act);
        for (unsigned t = 0; t < kNumFuTypes; ++t) {
            const std::uint16_t all =
                static_cast<std::uint16_t>((1u << cfg.fuCount[t]) - 1);
            ASSERT_EQ(g.fuGateMask[t] | act.fuBusyMask[t], all);
        }
        ASSERT_EQ(g.dcachePortsGated + act.dcachePortsUsed,
                  cfg.dcachePorts);
        ASSERT_EQ(g.resultBusesGated + act.resultBusUsed,
                  cfg.numResultBuses);
    }
}

TEST(Dcg, UngateablePhasesAreLeftAlone)
{
    SimRig rig("gzip");
    for (int i = 0; i < 5000; ++i) {
        rig.core.tick();
        const GateState g = rig.controller.gates(rig.core.activity());
        EXPECT_EQ(g.latchSlotsGated[static_cast<unsigned>(
            LatchPhase::FetchOut)], 0u);
        EXPECT_EQ(g.latchSlotsGated[static_cast<unsigned>(
            LatchPhase::DecodeOut)], 0u);
        EXPECT_EQ(g.latchSlotsGated[static_cast<unsigned>(
            LatchPhase::IssueOut)], 0u);
    }
}

TEST(Dcg, DoesNotTouchIssueQueue)
{
    // Sec 2.2.2: DCG leaves the issue queue to [6]'s scheme.
    SimRig rig("gzip");
    rig.core.tick();
    const GateState g = rig.controller.gates(rig.core.activity());
    EXPECT_DOUBLE_EQ(g.iqGatedFraction, 0.0);
}

TEST(Dcg, ControlOverheadAlwaysCharged)
{
    SimRig rig("gzip");
    rig.core.tick();
    EXPECT_TRUE(rig.controller.gates(rig.core.activity())
                    .dcgControlActive);
}

TEST(Dcg, ZeroPerformanceImpact)
{
    // Bit-exact IPC: DCG observes the pipeline but never stalls it.
    SimRig with_dcg("parser", 3);
    SimRig without("parser", 3);
    PowerModel pm(CoreConfig{}, Technology{}, with_dcg.stats);
    for (int i = 0; i < 40000; ++i) {
        with_dcg.core.tick();
        pm.tick(with_dcg.core.activity(),
                with_dcg.controller.gates(with_dcg.core.activity()));
        without.core.tick();
    }
    EXPECT_EQ(with_dcg.core.committedInsts(),
              without.core.committedInsts());
}

TEST(Dcg, SequentialPriorityTogglesLessThanRoundRobin)
{
    // Sec 3.1: the sequential priority policy exists to keep the
    // gate-control from toggling.
    const Profile p = profileByName("gzip");

    auto measure = [&](bool seq) {
        StatRegistry stats;
        TraceGenerator gen(p, 7);
        MemoryHierarchy mem(HierarchyConfig{}, stats);
        BranchPredictor bp(BranchPredictorConfig{}, stats);
        CoreConfig cc;
        cc.sequentialPriority = seq;
        Core core(cc, gen, mem, bp, stats);
        DcgController ctl(cc, DcgConfig{}, stats);
        for (int i = 0; i < 30000; ++i) {
            core.tick();
            ctl.gates(core.activity());
        }
        return ctl.fuToggles(FuType::IntAluUnit);
    };

    const auto seq_toggles = measure(true);
    const auto rr_toggles = measure(false);
    EXPECT_LT(seq_toggles, rr_toggles);
}

TEST(Dcg, GatedCycleCountersAccumulate)
{
    SimRig rig("mcf");  // mostly idle machine -> lots of gating
    for (int i = 0; i < 5000; ++i) {
        rig.core.tick();
        rig.controller.gates(rig.core.activity());
    }
    EXPECT_GT(rig.stats.lookup("dcg.gated_fu_cycles"), 1000.0);
    EXPECT_GT(rig.stats.lookup("dcg.gated_latch_slots"), 1000.0);
    EXPECT_GT(rig.stats.lookup("dcg.gated_dcache_ports"), 1000.0);
    EXPECT_GT(rig.stats.lookup("dcg.gated_result_buses"), 1000.0);
}

TEST(Dcg, IssueQueueExtensionGatesEmptyEntries)
{
    // Extension per [6] (Sec 2.2.2): empty window entries' wakeup
    // slices are deterministically gateable.
    StatRegistry stats;
    DcgConfig cfg;
    cfg.gateIssueQueue = true;
    DcgController ctl(CoreConfig{}, cfg, stats);

    CycleActivity act;
    act.iqOccupied = 40;
    const GateState g = ctl.gates(act);
    // 128-entry window, 40 occupied + 8 rename-width guard = 48.
    EXPECT_NEAR(g.iqGatedFraction, (128.0 - 48.0) / 128.0, 1e-9);
}

TEST(Dcg, IssueQueueExtensionNeverGatesOccupied)
{
    StatRegistry stats;
    DcgConfig cfg;
    cfg.gateIssueQueue = true;
    DcgController ctl(CoreConfig{}, cfg, stats);
    CycleActivity act;
    act.iqOccupied = 128;  // full window
    const GateState g = ctl.gates(act);
    EXPECT_DOUBLE_EQ(g.iqGatedFraction, 0.0);
}

TEST(Dcg, IssueQueueExtensionKeepsZeroLoss)
{
    SimRig a("equake", 9);
    SimRig b("equake", 9);
    StatRegistry s2;
    DcgConfig iq_cfg;
    iq_cfg.gateIssueQueue = true;
    DcgController iq_ctl(CoreConfig{}, iq_cfg, s2);
    PowerModel pm_a(CoreConfig{}, Technology{}, a.stats);
    PowerModel pm_b(CoreConfig{}, Technology{}, s2);
    for (int i = 0; i < 30000; ++i) {
        a.core.tick();
        pm_a.tick(a.core.activity(), a.controller.gates(a.core.activity()));
        b.core.tick();
        pm_b.tick(b.core.activity(), iq_ctl.gates(b.core.activity()));
    }
    EXPECT_EQ(a.core.committedInsts(), b.core.committedInsts());
    // The combination saves strictly more energy.
    EXPECT_LT(pm_b.totalEnergyPJ(), pm_a.totalEnergyPJ());
}
