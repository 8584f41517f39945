/** Tests for the simulator harness itself. */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "gating/registry.hh"
#include "sim/presets.hh"
#include "sim/simulator.hh"

using namespace dcg;

TEST(Simulator, RunsRequestedInstructionCount)
{
    Simulator sim(profileByName("gzip"), table1Config());
    sim.run(20000, 5000);
    EXPECT_GE(sim.core().committedInsts(), 20000u);
    EXPECT_GT(sim.power().cycles(), 0u);
}

TEST(Simulator, CycleCapSaturatesInsteadOfWrapping)
{
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(Simulator::cycleCap(1000, 500), 1'150'000u);
    EXPECT_EQ(Simulator::cycleCap(0, 0), 1'000'000u);
    // 2^62 instructions wrapped the unsaturated sum to 7,000,000.
    EXPECT_EQ(Simulator::cycleCap(std::uint64_t{1} << 62, 0), kMax);
    EXPECT_EQ(Simulator::cycleCap(0, std::uint64_t{1} << 62), kMax);
    EXPECT_EQ(Simulator::cycleCap(kMax, 0), kMax);
    EXPECT_EQ(Simulator::cycleCap(kMax, kMax), kMax);
    // The largest count that still fits, and one past it.
    const std::uint64_t top = (kMax - 1'000'000) / 100;
    EXPECT_EQ(Simulator::cycleCap(top, 0), top * 100 + 1'000'000);
    EXPECT_EQ(Simulator::cycleCap(top, 1), kMax);
}

TEST(Simulator, WarmupResetsMeasurement)
{
    Simulator sim(profileByName("gzip"), table1Config());
    sim.run(10000, 10000);
    // Measured committed count excludes warm-up instructions.
    const RunResult r = sim.result();
    EXPECT_LT(r.instructions, 12000u);
    EXPECT_GE(r.instructions, 10000u);
}

TEST(Simulator, ResultFieldsPopulated)
{
    const RunResult r =
        runBenchmark(profileByName("vortex"), table1Config(), 40000,
                     20000);
    EXPECT_EQ(r.benchmark, "vortex");
    EXPECT_EQ(r.scheme, "base");
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.totalEnergyPJ, 0.0);
    EXPECT_GT(r.avgPowerW, 0.0);
    EXPECT_GT(r.branchAccuracy, 0.5);
    EXPECT_GT(r.energyPerInstPJ(), 0.0);
    EXPECT_GT(r.intUnitUtil, 0.0);
    EXPECT_GT(r.latchUtil, 0.0);
}

TEST(Simulator, EveryRegisteredSchemeInstantiates)
{
    // The registry catalog is the source of truth: every scheme it
    // lists must build a policy whose name() round-trips the key.
    const auto names = gating::schemes().names();
    ASSERT_GE(names.size(), 6u);
    for (const std::string &s : names) {
        Simulator sim(profileByName("gzip"), table1Config(s));
        EXPECT_EQ(sim.policy().name(), s);
    }
}

TEST(Simulator, ReproducibleAcrossInstances)
{
    const auto a =
        runBenchmark(profileByName("parser"), table1Config(), 15000,
                     5000);
    const auto b =
        runBenchmark(profileByName("parser"), table1Config(), 15000,
                     5000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.totalEnergyPJ, b.totalEnergyPJ);
}

TEST(Simulator, SeedChangesTimingSlightly)
{
    SimConfig c1 = table1Config();
    SimConfig c2 = table1Config();
    c2.seed = 999;
    const auto a = runBenchmark(profileByName("parser"), c1, 40000, 15000);
    const auto b = runBenchmark(profileByName("parser"), c2, 40000, 15000);
    EXPECT_NE(a.cycles, b.cycles);
    // ...but the statistics stay in the same band (phase noise makes
    // short runs wobble; allow a generous band).
    EXPECT_NEAR(a.ipc, b.ipc, a.ipc * 0.35);
}

TEST(Simulator, DumpStatsProducesRegistryText)
{
    Simulator sim(profileByName("gzip"), table1Config());
    sim.run(5000, 1000);
    std::ostringstream os;
    sim.dumpStats(os);
    EXPECT_NE(os.str().find("core.ipc"), std::string::npos);
    EXPECT_NE(os.str().find("power.total_energy_pj"), std::string::npos);
}

TEST(Simulator, LanesMustAgreeInEveryTimingField)
{
    SimConfig other_seed = table1Config("dcg");
    other_seed.seed = 2;
    SimConfig other_core = table1Config("dcg");
    other_core.core.windowSize = 64;
    SimConfig other_tech = table1Config("dcg");
    other_tech.tech.vdd *= 0.9;  // power only: may share a timing run

    EXPECT_TRUE(sameTiming(table1Config("base"), other_tech));
    for (const SimConfig &c : {other_seed, other_core}) {
        EXPECT_FALSE(sameTiming(table1Config("base"), c));
        const std::vector<SimConfig> lanes = {table1Config("base"), c};
        EXPECT_EXIT(Simulator(profileByName("gzip"), lanes),
                    ::testing::ExitedWithCode(1), "timing field");
    }
    Simulator fused(profileByName("gzip"),
                    std::vector<SimConfig>{table1Config("base"),
                                           other_tech});
    EXPECT_EQ(fused.lanes(), 2u);
}

TEST(Presets, Table1ConfigMatchesPaper)
{
    const SimConfig cfg = table1Config();
    EXPECT_EQ(cfg.core.issueWidth, 8u);
    EXPECT_EQ(cfg.core.depth.totalStages(), 8u);
    EXPECT_EQ(cfg.mem.l1d.sizeBytes, 64u * 1024);
    EXPECT_EQ(cfg.mem.l2.sizeBytes, 2u * 1024 * 1024);
    EXPECT_EQ(cfg.mem.memLatency, 100u);
    EXPECT_EQ(cfg.bpred.l1Entries, 8192u);
    EXPECT_EQ(cfg.bpred.btbEntries, 8192u);
}

TEST(Presets, DeepPipelineConfigIsTwentyStages)
{
    EXPECT_EQ(deepPipelineConfig().core.depth.totalStages(), 20u);
}

TEST(Presets, PrintConfigMentionsKeyParameters)
{
    std::ostringstream os;
    printConfig(table1Config(), os);
    const std::string out = os.str();
    EXPECT_NE(out.find("8-way issue"), std::string::npos);
    EXPECT_NE(out.find("128-entry window"), std::string::npos);
    EXPECT_NE(out.find("6 integer ALUs"), std::string::npos);
    EXPECT_NE(out.find("64KB"), std::string::npos);
    EXPECT_NE(out.find("2MB"), std::string::npos);
}

TEST(Simulator, EnvDefaultsArepositive)
{
    EXPECT_GT(defaultBenchInstructions(), 0u);
    EXPECT_GT(defaultBenchWarmup(), 0u);
}
