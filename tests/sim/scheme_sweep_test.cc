/**
 * Registry-parameterised scheme sweep: the invariants every gating
 * scheme must satisfy, asserted for each *registered* scheme so a new
 * scheme file is under test the moment it registers — including the
 * lane contract behind SchemeInfo::timingNeutral.
 */

#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "gating/registry.hh"
#include "sim/presets.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "trace/spec2000.hh"

using namespace dcg;

namespace {

constexpr std::uint64_t kInsts = 20000;
constexpr std::uint64_t kWarmup = 5000;

class SchemeSweep : public ::testing::TestWithParam<std::string>
{
};

RunResult
runSchemeOnce(const std::string &scheme)
{
    return runBenchmark(profileByName("gzip"), table1Config(scheme),
                        kInsts, kWarmup);
}

bool
timingNeutral(const std::string &scheme)
{
    return gating::findScheme(scheme)->timingNeutral;
}

/** The golden corpus's three presets (tests/sim/golden_test.cc). */
struct Preset
{
    const char *config;   ///< "table1" or "deep"
    const char *profile;  ///< SPEC profile name
};
constexpr Preset kPresets[] = {
    {"table1", "gzip"}, {"deep", "gcc"}, {"table1", "mcf"}};

SimConfig
presetConfig(const Preset &p, const std::string &scheme, bool skipAhead)
{
    SimConfig cfg = std::string_view(p.config) == "deep"
        ? deepPipelineConfig(scheme) : table1Config(scheme);
    cfg.seed = 7;
    cfg.skipAhead = skipAhead;
    return cfg;
}

/** A lane's merged statistics dump followed by its results JSON. */
std::string
laneBytes(const Simulator &sim, std::size_t lane)
{
    std::ostringstream os;
    sim.dumpStats(os, lane);
    writeResultsJson({sim.result(lane)}, os);
    return os.str();
}

/** Every statistic name in a dump (first token of each line). */
std::vector<std::string>
statNames(const Simulator &sim)
{
    std::ostringstream os;
    sim.dumpStats(os);
    std::istringstream in(os.str());
    std::vector<std::string> names;
    for (std::string line; std::getline(in, line);)
        names.push_back(line.substr(0, line.find(' ')));
    return names;
}

} // namespace

TEST_P(SchemeSweep, DeterminismInvariantHolds)
{
    // PowerModel::tick() asserts per cycle that gated + used never
    // exceeds capacity for any block class (the paper's "a gated block
    // is never a used block"), in release builds too — a completed run
    // IS the invariant check. The result must also be well-formed.
    const RunResult r = runSchemeOnce(GetParam());
    EXPECT_EQ(r.scheme, GetParam());
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.totalEnergyPJ, 0.0);
}

TEST_P(SchemeSweep, ReportsAreByteStableAcrossRuns)
{
    // Same seed, same scheme: the canonical JSON report must be
    // byte-identical across independent simulator instances (the
    // property the result cache and the wire protocol rest on).
    std::ostringstream a, b;
    writeResultsJson({runSchemeOnce(GetParam())}, a);
    writeResultsJson({runSchemeOnce(GetParam())}, b);
    EXPECT_EQ(a.str(), b.str());
}

TEST_P(SchemeSweep, NeverCostsEnergyVersusBaseline)
{
    // Every gating scheme's reason to exist: on a representative small
    // trace its total energy must not exceed the ungated baseline
    // (overheads — DCG control, DDCG comparators, CG-OoO schedulers —
    // included).
    const RunResult base = runSchemeOnce("base");
    const RunResult gated = runSchemeOnce(GetParam());
    EXPECT_LE(gated.totalEnergyPJ, base.totalEnergyPJ) << GetParam();
}

TEST_P(SchemeSweep, SharesATimingRunOnlyWhenTimingNeutral)
{
    const std::string &scheme = GetParam();
    if (!timingNeutral(scheme)) {
        // A scheme that may steer the core must run alone.
        const std::vector<SimConfig> lanes = {table1Config("base"),
                                              table1Config(scheme)};
        EXPECT_EXIT(Simulator(profileByName("gzip"), lanes),
                    ::testing::ExitedWithCode(1), "not timing-neutral");
        return;
    }

    // The scheme under test leads; every other neutral scheme rides
    // along. Each lane must be byte-identical to its solo run: results
    // JSON, merged stats dump and every stat() value, bit for bit.
    std::vector<std::string> schemes = {scheme};
    for (const std::string &s : gating::schemeNames())
        if (s != scheme && timingNeutral(s))
            schemes.push_back(s);
    ASSERT_GE(schemes.size(), 2u);

    for (const Preset &p : kPresets) {
        for (const bool skip : {true, false}) {
            std::vector<SimConfig> lanes;
            for (const std::string &s : schemes)
                lanes.push_back(presetConfig(p, s, skip));
            Simulator fused(profileByName(p.profile), lanes);
            fused.run(12000, 1000);
            ASSERT_EQ(fused.lanes(), lanes.size());

            for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
                const std::string where = schemes[lane] + " lane " +
                    std::to_string(lane) + " on " + p.config + "/" +
                    p.profile + (skip ? " skip-ahead" : " ticked");
                Simulator solo(profileByName(p.profile), lanes[lane]);
                solo.run(12000, 1000);
                EXPECT_EQ(laneBytes(fused, lane), laneBytes(solo, 0))
                    << where;
                for (const std::string &name : statNames(solo))
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                                  fused.stat(name, lane)),
                              std::bit_cast<std::uint64_t>(
                                  solo.stat(name)))
                        << where << ": " << name;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredSchemes, SchemeSweep,
    ::testing::ValuesIn(gating::schemeNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        // gtest names reject '-': plb-ext -> plb_ext.
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });
