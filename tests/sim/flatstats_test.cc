/**
 * @file
 * Flat-counter reconciliation: the tick path accumulates statistics in
 * Core's contiguous uint64 block (CoreStat) and only foldStats()
 * writes them into the named registry. Every flat slot must land in
 * its registry statistic exactly — counters equal, averages
 * reproducing sum/count byte for byte — and the fold must be
 * idempotent, since reports may fold more than once.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "pipeline/core.hh"
#include "sim/presets.hh"
#include "sim/simulator.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"

namespace {

using namespace dcg;

struct BareCore
{
    StatRegistry stats;
    TraceGenerator gen;
    MemoryHierarchy mem;
    BranchPredictor bpred;
    Core core;

    explicit BareCore(const char *profile)
        : gen(profileByName(profile), 3),
          mem(HierarchyConfig{}, stats),
          bpred(BranchPredictorConfig{}, stats),
          core(CoreConfig{}, gen, mem, bpred, stats)
    {
    }
};

void
expectReconciled(const StatRegistry &stats, const Core &core)
{
    const auto flat = [&](CoreStat s) {
        return static_cast<double>(core.stat(s));
    };
    const auto mean = [&](CoreStat sum, CoreStat n) {
        return core.stat(n)
            ? flat(sum) / static_cast<double>(core.stat(n)) : 0.0;
    };

    EXPECT_EQ(stats.lookup("core.cycles"), flat(CoreStat::Cycles));
    EXPECT_EQ(stats.lookup("core.committed"),
              flat(CoreStat::Committed));
    EXPECT_EQ(stats.lookup("core.issued"), flat(CoreStat::Issued));
    EXPECT_EQ(stats.lookup("core.fetch_stall_cycles"),
              flat(CoreStat::FetchStallCycles));
    EXPECT_EQ(stats.lookup("core.rob_full_stalls"),
              flat(CoreStat::RobFullStalls));
    EXPECT_EQ(stats.lookup("core.lsq_full_stalls"),
              flat(CoreStat::LsqFullStalls));
    EXPECT_EQ(stats.lookup("core.mispredicts"),
              flat(CoreStat::Mispredicts));
    EXPECT_EQ(stats.lookup("core.skipped_cycles"),
              flat(CoreStat::SkippedCycles));
    EXPECT_EQ(stats.lookup("core.commit_wait_issue"),
              flat(CoreStat::CommitWaitIssue));
    EXPECT_EQ(stats.lookup("core.commit_wait_complete"),
              flat(CoreStat::CommitWaitComplete));
    EXPECT_EQ(stats.lookup("core.commit_wait_storebuf"),
              flat(CoreStat::CommitWaitStoreBuf));

    // Averages fold as (integer sum, sample count); the registry mean
    // must reproduce the flat division bit for bit.
    EXPECT_EQ(stats.lookup("core.window_occupancy"),
              mean(CoreStat::WindowOccSum, CoreStat::WindowOccSamples));
    EXPECT_EQ(stats.lookup("core.issue_wait"),
              mean(CoreStat::IssueWaitSum, CoreStat::IssueWaitSamples));
    EXPECT_EQ(stats.lookup("core.fetched_per_cycle"),
              mean(CoreStat::FetchedSum, CoreStat::FetchedSamples));
    EXPECT_EQ(stats.lookup("core.commit_latency"),
              mean(CoreStat::CommitLatSum, CoreStat::CommitLatSamples));
}

TEST(FlatStats, FoldReconcilesEverySlot)
{
    BareCore b("gzip");
    while (b.core.committedInsts() < 20000)
        b.core.tick();
    b.core.foldStats();
    expectReconciled(b.stats, b.core);

    // The run must actually exercise the slots, or the equalities
    // above are vacuous.
    EXPECT_GT(b.core.stat(CoreStat::Committed), 0u);
    EXPECT_GT(b.core.stat(CoreStat::Issued), 0u);
    EXPECT_GT(b.core.stat(CoreStat::Mispredicts), 0u);
    EXPECT_GT(b.core.stat(CoreStat::WindowOccSamples), 0u);
}

TEST(FlatStats, FoldIsIdempotent)
{
    BareCore b("gcc");
    while (b.core.committedInsts() < 5000)
        b.core.tick();
    b.core.foldStats();
    const double committed = b.stats.lookup("core.committed");
    const double occupancy = b.stats.lookup("core.window_occupancy");
    b.core.foldStats();
    b.core.foldStats();
    EXPECT_EQ(b.stats.lookup("core.committed"), committed);
    EXPECT_EQ(b.stats.lookup("core.window_occupancy"), occupancy);
}

TEST(FlatStats, RegistryUntouchedUntilFold)
{
    BareCore b("gzip");
    while (b.core.committedInsts() < 1000)
        b.core.tick();
    // The whole point of the flat block: the hot loop never writes the
    // registry, so before the fold the named stats still read zero.
    EXPECT_EQ(b.stats.lookup("core.cycles"), 0.0);
    EXPECT_EQ(b.stats.lookup("core.committed"), 0.0);
    b.core.foldStats();
    EXPECT_GT(b.stats.lookup("core.cycles"), 0.0);
}

TEST(FlatStats, SimulatorResultFoldsThroughTheFullStack)
{
    SimConfig cfg = table1Config("dcg");
    cfg.seed = 5;
    Simulator sim(profileByName("mcf"), cfg);
    sim.run(8000, 2000);
    const RunResult r = sim.result();  // folds as a side effect
    expectReconciled(sim.timingStats(), sim.core());
    EXPECT_EQ(static_cast<double>(r.cycles), sim.stat("core.cycles"));
    EXPECT_EQ(static_cast<double>(r.instructions),
              sim.stat("core.committed"));
}

} // namespace
