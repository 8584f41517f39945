/** Tests for Job key canonicalisation and seed derivation. */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/job.hh"
#include "gating/registry.hh"
#include "sim/presets.hh"
#include "trace/spec2000.hh"

using namespace dcg;
using namespace dcg::exp;

namespace {

Job
gzipJob(const std::string &scheme = "dcg")
{
    return makeJob(profileByName("gzip"), table1Config(scheme), 2000,
                   500);
}

} // namespace

TEST(JobKey, IdenticalJobsShareAKey)
{
    EXPECT_EQ(jobKey(gzipJob()), jobKey(gzipJob()));
}

TEST(JobKey, EveryRelevantFieldSeparatesKeys)
{
    const Job ref = gzipJob();

    Job other = gzipJob("plb-ext");
    EXPECT_NE(jobKey(ref), jobKey(other));

    other = gzipJob();
    other.instructions = 3000;
    EXPECT_NE(jobKey(ref), jobKey(other));

    other = gzipJob();
    other.warmup = 499;
    EXPECT_NE(jobKey(ref), jobKey(other));

    other = gzipJob();
    other.config.seed = 2;
    EXPECT_NE(jobKey(ref), jobKey(other));

    other = gzipJob();
    other.config.core.fuCount[0] = 4;
    EXPECT_NE(jobKey(ref), jobKey(other));

    other = gzipJob();
    other.config.tech.latchBitCap *= 1.0000001;
    EXPECT_NE(jobKey(ref), jobKey(other));

    other = gzipJob();
    other.profile = profileByName("mcf");
    EXPECT_NE(jobKey(ref), jobKey(other));

    other = gzipJob();
    other.captureStats = {"plb.mode_transitions"};
    EXPECT_NE(jobKey(ref), jobKey(other));
}

TEST(JobKey, EveryRegisteredSchemeGetsItsOwnKey)
{
    // Regression for the src/exp/job.hh comment bug: the *seed*
    // derivation ignores the scheme, the *key* must not — otherwise
    // the result cache would serve one scheme's numbers for another.
    // Checked pairwise over the whole registry so a new scheme cannot
    // collide with an existing one either.
    std::map<std::string, std::string> keys;
    for (const std::string &scheme : gating::schemes().names())
        keys[jobKey(gzipJob(scheme))] = scheme;
    EXPECT_EQ(keys.size(), gating::schemes().names().size());
}

TEST(JobKey, SchemeConfigFieldsSeparateKeys)
{
    // Per-scheme knobs are part of the key: the same scheme with a
    // different configuration is a different simulation.
    const Job ref = gzipJob();

    Job other = gzipJob();
    other.config.dcg.gateIssueQueue = true;
    EXPECT_NE(jobKey(ref), jobKey(other));

    other = gzipJob("plb-orig");
    other.config.plb.windowCycles = 512;
    EXPECT_NE(jobKey(gzipJob("plb-orig")), jobKey(other));
}

namespace {

/** Change @p v to another value of its type. */
template <typename T>
void
bump(T &v)
{
    if constexpr (std::is_same_v<T, bool>)
        v = !v;
    else if constexpr (std::is_enum_v<T>)
        v = static_cast<T>(static_cast<int>(v) + 1);
    else
        ++v;
}

} // namespace

TEST(JobKey, EveryTimingFieldSeparatesKeys)
{
    // The result cache keys on jobKey(), the Engine fuses lanes by
    // timingKey(), and the Simulator admits a fused lane only when
    // sameTiming() holds. A timing field that one of the three misses
    // either serves one job another's result or aborts a fused run,
    // so every field must separate all three. A new timing field
    // needs a line here.
#define TIMING_FIELD(f) {#f, [](SimConfig &c) { bump(c.f); }}
    const std::vector<std::pair<const char *, void (*)(SimConfig &)>>
        fields = {
            TIMING_FIELD(core.fetchWidth),
            TIMING_FIELD(core.renameWidth),
            TIMING_FIELD(core.issueWidth),
            TIMING_FIELD(core.commitWidth),
            TIMING_FIELD(core.windowSize),
            TIMING_FIELD(core.lsqSize),
            TIMING_FIELD(core.storeBufferSize),
            TIMING_FIELD(core.fuCount[0]),
            TIMING_FIELD(core.fuCount[1]),
            TIMING_FIELD(core.fuCount[2]),
            TIMING_FIELD(core.fuCount[3]),
            TIMING_FIELD(core.dcachePorts),
            TIMING_FIELD(core.numResultBuses),
            TIMING_FIELD(core.operandBits),
            TIMING_FIELD(core.controlBitsPerSlot),
            TIMING_FIELD(core.depth.fetch),
            TIMING_FIELD(core.depth.decode),
            TIMING_FIELD(core.depth.rename),
            TIMING_FIELD(core.depth.issue),
            TIMING_FIELD(core.depth.read),
            TIMING_FIELD(core.depth.mem),
            TIMING_FIELD(core.depth.wb),
            TIMING_FIELD(core.sequentialPriority),
            TIMING_FIELD(core.delayStoresOneCycle),
            TIMING_FIELD(core.modelWrongPathFetch),
            TIMING_FIELD(bpred.kind),
            TIMING_FIELD(bpred.l1Entries),
            TIMING_FIELD(bpred.l2Entries),
            TIMING_FIELD(bpred.historyBits),
            TIMING_FIELD(bpred.btbEntries),
            TIMING_FIELD(bpred.btbAssoc),
            TIMING_FIELD(bpred.rasEntries),
            TIMING_FIELD(bpred.bimodalEntries),
            TIMING_FIELD(bpred.chooserEntries),
            TIMING_FIELD(mem.l1i.sizeBytes),
            TIMING_FIELD(mem.l1i.assoc),
            TIMING_FIELD(mem.l1i.lineBytes),
            TIMING_FIELD(mem.l1i.hitLatency),
            TIMING_FIELD(mem.l1i.mshrs),
            TIMING_FIELD(mem.l1d.sizeBytes),
            TIMING_FIELD(mem.l1d.assoc),
            TIMING_FIELD(mem.l1d.lineBytes),
            TIMING_FIELD(mem.l1d.hitLatency),
            TIMING_FIELD(mem.l1d.mshrs),
            TIMING_FIELD(mem.l2.sizeBytes),
            TIMING_FIELD(mem.l2.assoc),
            TIMING_FIELD(mem.l2.lineBytes),
            TIMING_FIELD(mem.l2.hitLatency),
            TIMING_FIELD(mem.l2.mshrs),
            TIMING_FIELD(mem.memLatency),
        };
#undef TIMING_FIELD

    const Job ref = gzipJob();
    for (const auto &[name, mutate] : fields) {
        Job other = ref;
        mutate(other.config);
        EXPECT_NE(jobKey(ref), jobKey(other)) << name;
        EXPECT_NE(timingKey(ref), timingKey(other)) << name;
        EXPECT_FALSE(sameTiming(ref.config, other.config)) << name;
    }
}

TEST(JobKey, AdjacentFieldsDoNotMerge)
{
    // "1","23" vs "12","3" style collisions must be impossible.
    Job a = gzipJob();
    a.instructions = 1;
    a.warmup = 23;
    Job b = gzipJob();
    b.instructions = 12;
    b.warmup = 3;
    EXPECT_NE(jobKey(a), jobKey(b));
}

TEST(JobKey, ZeroRunLengthsResolveToDefaults)
{
    Job implicit = gzipJob();
    implicit.instructions = 0;
    implicit.warmup = 0;
    Job expl = gzipJob();
    expl.instructions = defaultBenchInstructions();
    expl.warmup = defaultBenchWarmup();
    EXPECT_EQ(jobKey(implicit), jobKey(expl));
}

TEST(JobSeed, DeterministicAndSchemeIndependent)
{
    EXPECT_EQ(deriveJobSeed(gzipJob()), deriveJobSeed(gzipJob()));

    // All schemes of one benchmark must replay the same instruction
    // stream (the paper compares schemes on identical traces).
    EXPECT_EQ(deriveJobSeed(gzipJob("base")),
              deriveJobSeed(gzipJob("plb-ext")));

    // Run length does not perturb the stream either.
    Job longer = gzipJob();
    longer.instructions = 100000;
    EXPECT_EQ(deriveJobSeed(gzipJob()), deriveJobSeed(longer));
}

TEST(JobSeed, WorkloadsGetIndependentStreams)
{
    Job mcf = gzipJob();
    mcf.profile = profileByName("mcf");
    EXPECT_NE(deriveJobSeed(gzipJob()), deriveJobSeed(mcf));

    Job reseeded = gzipJob();
    reseeded.config.seed = 2;
    EXPECT_NE(deriveJobSeed(gzipJob()), deriveJobSeed(reseeded));
}
