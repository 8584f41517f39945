/** Tests for Job key canonicalisation and seed derivation. */

#include <gtest/gtest.h>

#include <map>
#include <string>

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
    other.config.ddcg.bitActivityFactor = 0.5;
    EXPECT_NE(jobKey(ref), jobKey(other));

    other = gzipJob();
    other.config.cgooo.blockSize = 8;
    EXPECT_NE(jobKey(ref), jobKey(other));

    other = gzipJob();
    other.config.dcg.gateIssueQueue = true;
    EXPECT_NE(jobKey(ref), jobKey(other));
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
