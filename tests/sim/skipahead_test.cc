/**
 * @file
 * Skip-ahead equivalence: for every registered gating scheme, a run
 * with deterministic idle skip-ahead enabled (SimConfig::skipAhead,
 * the default) must be indistinguishable from ticking through every
 * idle cycle — identical cycle counts, bitwise-identical energy
 * totals, and a byte-identical report (modulo the core.skipped_cycles
 * diagnostic itself, which is the one statistic allowed to differ).
 *
 * The SPEC profiles never trigger skip-ahead: their code footprints
 * fit in the L1 I-cache, so fetch never stalls long with a drained
 * window (see EXPERIMENTS.md "Simulator performance"). The adversarial
 * profiles here are built to hit the skip path and its neighbours:
 * an I-cache-storming footprint (long fetch stalls over an empty
 * machine), a mispredict-heavy branch mix (flush bursts), and a
 * dependence-chained mix (empty-issue windows with a full window).
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gating/registry.hh"
#include "sim/presets.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "trace/spec2000.hh"

namespace {

using namespace dcg;

/**
 * Code footprint far beyond every cache level: fetch repeatedly
 * misses to memory while short dependence chains drain the window,
 * which is exactly the provably idle stall skip-ahead batches.
 */
Profile
icacheStormProfile()
{
    Profile p = profileByName("gzip");
    p.name = "icache-storm";
    p.codeFootprintBytes = 16 * 1024 * 1024;
    // Keep the back end fast so the window actually drains during the
    // fetch stalls: stack-resident loads, no pointer-chasing region.
    p.memory.fracStack = 0.9;
    p.memory.fracStride = 0.1;
    p.memory.fracRandom = 0.0;
    p.deps.srcReadyProb = 0.8;
    return p;
}

/** Mispredict-heavy mix: constant branch-flush bursts. */
Profile
flushBurstProfile()
{
    Profile p = profileByName("gzip");
    p.name = "flush-burst";
    p.branches.fracStronglyTaken = 0.1;
    p.branches.fracStronglyNotTaken = 0.1;
    p.branches.fracLoop = 0.1;
    p.branches.fracRandom = 0.7;
    return p;
}

/** Long serial dependence chains: empty-issue windows, full window. */
Profile
depChainProfile()
{
    Profile p = profileByName("gzip");
    p.name = "dep-chain";
    p.deps.srcReadyProb = 0.02;
    p.deps.depGeoP = 0.9;  // producers are almost always the previous op
    p.phases.lowIlpFraction = 0.8;
    return p;
}

std::vector<Profile>
adversarialProfiles()
{
    return {icacheStormProfile(), flushBurstProfile(), depChainProfile()};
}

struct RunOutput
{
    RunResult result;
    std::string reportNoSkipStat;
    double skippedCycles = 0.0;
};

/** Run with the given skip setting; capture report + skip counter. */
RunOutput
runOnce(const Profile &prof, const std::string &scheme, bool skip)
{
    SimConfig cfg = table1Config(scheme);
    cfg.seed = 11;
    cfg.skipAhead = skip;
    Simulator sim(prof, cfg);
    sim.run(6000, 1500);

    RunOutput out;
    out.result = sim.result();
    out.skippedCycles = sim.stat("core.skipped_cycles");

    std::ostringstream os;
    sim.dumpStats(os);
    writeResultsJson({out.result}, os);
    // Drop the one line that legitimately differs between the two
    // modes; everything else must match byte for byte.
    std::istringstream in(os.str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("core.skipped_cycles") == std::string::npos)
            out.reportNoSkipStat += line + "\n";
    }
    return out;
}

class SkipAheadEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SkipAheadEquivalence, OffAndOnAreByteIdentical)
{
    const std::string &scheme = GetParam();
    for (const Profile &prof : adversarialProfiles()) {
        SCOPED_TRACE(prof.name);
        const RunOutput off = runOnce(prof, scheme, false);
        const RunOutput on = runOnce(prof, scheme, true);

        EXPECT_EQ(off.result.cycles, on.result.cycles);
        EXPECT_EQ(off.result.instructions, on.result.instructions);
        // Bitwise: idle energy is count-based on both paths, so not
        // even the last ulp may move.
        EXPECT_EQ(off.result.totalEnergyPJ, on.result.totalEnergyPJ);
        EXPECT_EQ(off.reportNoSkipStat, on.reportNoSkipStat);

        EXPECT_EQ(off.skippedCycles, 0.0)
            << "skip-off run must tick every cycle";
        if (prof.name == "icache-storm") {
            // The equivalence above is only meaningful if the skip
            // path actually engaged.
            EXPECT_GT(on.skippedCycles, 0.0)
                << "adversarial profile failed to trigger skip-ahead";
        }
    }
}

std::string
sanitize(const ::testing::TestParamInfo<std::string> &info)
{
    std::string s = info.param;
    for (char &c : s)
        if (c == '-')
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredSchemes, SkipAheadEquivalence,
                         ::testing::ValuesIn(gating::schemes().names()),
                         sanitize);

} // namespace
