/**
 * Tests for the dcgserved wire protocol types: JobSpec JSON
 * round-trips, validation (reject, don't die), and the bit-exact
 * result embedding used by submit replies.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "exp/engine.hh"
#include "gating/registry.hh"
#include "serve/protocol.hh"
#include "sim/presets.hh"
#include "sim/report.hh"
#include "trace/spec2000.hh"

using namespace dcg;
using namespace dcg::serve;

namespace {

constexpr std::uint64_t kInsts = 2000;
constexpr std::uint64_t kWarmup = 500;

JobSpec
sampleSpec()
{
    JobSpec s;
    s.bench = "mcf";
    s.scheme = "plb-ext";
    s.depth = 20;
    s.insts = kInsts;
    s.warmup = kWarmup;
    s.seed = 7;
    s.gateIq = true;
    s.storeDelay = true;
    s.roundRobin = true;
    return s;
}

} // namespace

TEST(Protocol, JobSpecJsonRoundTrip)
{
    const JobSpec s = sampleSpec();
    JobSpec back;
    std::string err;
    ASSERT_TRUE(JobSpec::fromJson(s.toJson(), back, err)) << err;
    EXPECT_EQ(back.bench, s.bench);
    EXPECT_EQ(back.scheme, s.scheme);
    EXPECT_EQ(back.depth, s.depth);
    EXPECT_EQ(back.insts, s.insts);
    EXPECT_EQ(back.warmup, s.warmup);
    EXPECT_EQ(back.seed, s.seed);
    EXPECT_EQ(back.gateIq, s.gateIq);
    EXPECT_EQ(back.storeDelay, s.storeDelay);
    EXPECT_EQ(back.roundRobin, s.roundRobin);

    // The round-tripped spec expands to the same cache key — the
    // property the whole remote-execution path rests on.
    EXPECT_EQ(exp::jobKey(s.toJob()), exp::jobKey(back.toJob()));
}

TEST(Protocol, JobSpecValidationRejectsWithoutDying)
{
    std::string err;
    JobSpec ok;
    EXPECT_TRUE(ok.validate(err));

    JobSpec badBench = ok;
    badBench.bench = "quake3";
    EXPECT_FALSE(badBench.validate(err));
    EXPECT_NE(err.find("quake3"), std::string::npos);

    JobSpec badScheme = ok;
    badScheme.scheme = "turbo";
    EXPECT_FALSE(badScheme.validate(err));
    EXPECT_NE(err.find("turbo"), std::string::npos);
}

TEST(Protocol, JobSpecInstructionCountsAreBounded)
{
    std::string err;
    JobSpec s;
    s.insts = JobSpec::kMaxInstructions;
    s.warmup = JobSpec::kMaxInstructions;
    EXPECT_TRUE(s.validate(err)) << err;

    for (const std::uint64_t n : {JobSpec::kMaxInstructions + 1,
                                  std::uint64_t{1} << 62}) {
        JobSpec insts;
        insts.insts = n;
        EXPECT_FALSE(insts.validate(err)) << n;
        EXPECT_NE(err.find(std::to_string(n)), std::string::npos) << err;
        JobSpec warmup;
        warmup.warmup = n;
        EXPECT_FALSE(warmup.validate(err)) << n;
        EXPECT_NE(err.find(std::to_string(n)), std::string::npos) << err;
    }

    // The wire path rejects the same spec.
    JobSpec out;
    JsonValue v = JobSpec().toJson();
    v.set("insts", JsonValue::integer(std::uint64_t{1} << 62));
    EXPECT_FALSE(JobSpec::fromJson(v, out, err));
}

TEST(Protocol, JobSpecToJobMatchesPresets)
{
    JobSpec s;
    s.bench = "gzip";
    s.scheme = "dcg";
    s.depth = 8;
    s.insts = kInsts;
    s.warmup = kWarmup;
    s.seed = 3;
    const exp::Job job = s.toJob();
    SimConfig expect = table1Config("dcg");
    expect.seed = 3;
    EXPECT_EQ(exp::jobKey(job),
              exp::jobKey(exp::makeJob(profileByName("gzip"), expect,
                                       kInsts, kWarmup)));

    // depth >= 20 switches to the deep-pipeline machine.
    s.depth = 20;
    SimConfig deep = deepPipelineConfig("dcg");
    deep.seed = 3;
    EXPECT_EQ(exp::jobKey(s.toJob()),
              exp::jobKey(exp::makeJob(profileByName("gzip"), deep,
                                       kInsts, kWarmup)));
}

TEST(Protocol, SchemeValidationTracksRegistry)
{
    // The wire protocol accepts exactly the registered schemes — a new
    // scheme file is network-reachable with no protocol change.
    for (const std::string &name : gating::schemes().names()) {
        JobSpec s;
        s.bench = "gzip";
        s.scheme = name;
        std::string err;
        EXPECT_TRUE(s.validate(err)) << name << ": " << err;
    }

    JobSpec bad;
    bad.bench = "gzip";
    bad.scheme = "DCG";  // case-sensitive, like the registry
    std::string err;
    EXPECT_FALSE(bad.validate(err));
    // The rejection names every valid scheme so users can self-serve.
    EXPECT_NE(err.find("unknown scheme 'DCG'"), std::string::npos);
    for (const std::string &name : gating::schemes().names())
        EXPECT_NE(err.find(name), std::string::npos) << err;

    bad.scheme = "";
    EXPECT_FALSE(bad.validate(err));
}

TEST(Protocol, ResultsSurviveJsonEmbeddingBitExactly)
{
    exp::Engine engine(1);
    JobSpec s;
    s.bench = "gzip";
    s.insts = kInsts;
    s.warmup = kWarmup;
    const RunResult r = engine.runOne(s.toJob());

    // Embed exactly as the server does, then recover exactly as the
    // client does, and compare canonical serialisations byte-for-byte.
    const JsonValue v = resultsToJson({r});
    std::vector<RunResult> back;
    std::string err;
    ASSERT_TRUE(resultsFromJson(v, back, err)) << err;
    ASSERT_EQ(back.size(), 1u);

    std::ostringstream a, b;
    writeResultsJson({r}, a);
    writeResultsJson({back.front()}, b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(Protocol, ResponseHelpers)
{
    const JsonValue ok = okResponse();
    EXPECT_TRUE(ok.get("ok").asBool());

    const JsonValue err = errorResponse("busy", "queue full");
    EXPECT_FALSE(err.get("ok").asBool(true));
    EXPECT_EQ(err.get("error").asString(), "busy");
    EXPECT_EQ(err.get("detail").asString(), "queue full");
}

TEST(Protocol, RequestVersionDefaultsToCurrent)
{
    std::string err;
    unsigned v = 0;
    JsonValue req = JsonValue::object();
    req.set("op", JsonValue::string("stats"));
    ASSERT_TRUE(requestVersion(req, v, err)) << err;
    EXPECT_EQ(v, kProtocolVersion);

    req.set("version",
            JsonValue::integer(std::uint64_t{kProtocolVersion}));
    ASSERT_TRUE(requestVersion(req, v, err)) << err;
    EXPECT_EQ(v, kProtocolVersion);

    // Any other version still parses; rejection is a separate,
    // structured step so the client learns the one supported version.
    req.set("version", JsonValue::integer(std::uint64_t{7}));
    ASSERT_TRUE(requestVersion(req, v, err));
    EXPECT_EQ(v, 7u);
    const JsonValue rej = unsupportedVersionResponse(v);
    EXPECT_EQ(rej.get("error").asString(), "unsupported_version");
    EXPECT_EQ(rej.get("supported").asU64(0), kProtocolVersion);
}

TEST(Protocol, RequestVersionRejectsGarbage)
{
    std::string err;
    unsigned v = 0;
    JsonValue req = JsonValue::object();
    req.set("version", JsonValue::string("two"));
    EXPECT_FALSE(requestVersion(req, v, err));
    EXPECT_FALSE(err.empty());

    req.set("version", JsonValue::integer(std::int64_t{0}));
    EXPECT_FALSE(requestVersion(req, v, err));
    req.set("version", JsonValue::integer(std::int64_t{-3}));
    EXPECT_FALSE(requestVersion(req, v, err));
}

TEST(Protocol, VersionedEnvelopeHelpers)
{
    JsonValue resp = okResponse();
    stampVersion(resp, 2);
    EXPECT_EQ(resp.get("version").asU64(0), 2u);
    stampVersion(resp, 1);  // restamp replaces
    EXPECT_EQ(resp.get("version").asU64(0), 1u);

    const JsonValue rej = unsupportedVersionResponse(9);
    EXPECT_FALSE(rej.get("ok").asBool(true));
    EXPECT_EQ(rej.get("error").asString(), "unsupported_version");
    EXPECT_EQ(rej.get("supported").asU64(0), kProtocolVersion);

    const JsonValue no = notOwnerResponse("10.0.0.2:7878");
    EXPECT_FALSE(no.get("ok").asBool(true));
    EXPECT_EQ(no.get("error").asString(), "not_owner");
    EXPECT_EQ(no.get("redirect").asString(), "10.0.0.2:7878");
}

TEST(Protocol, ReplicateRequestCarriesTheExactResultBytes)
{
    exp::Engine engine(1);
    const JobSpec spec = sampleSpec();
    const RunResult r = engine.run({spec.toJob()})[0];
    const std::string key = exp::jobKey(spec.toJob());

    const JsonValue req = replicateRequest(key, r);
    EXPECT_EQ(req.get("op").asString(), "replicate");
    EXPECT_EQ(req.get("key").asString(), key);
    EXPECT_EQ(req.get("version").asU64(0), kProtocolVersion);

    // The payload is the canonical one-result array, token-for-token
    // — what makes a replica record byte-identical to the original.
    std::vector<RunResult> one{r};
    EXPECT_EQ(req.get("result").dump(), resultsToJson(one).dump());
    std::vector<RunResult> back;
    std::string err;
    ASSERT_TRUE(resultsFromJson(req.get("result"), back, err)) << err;
    ASSERT_EQ(back.size(), 1u);
    std::ostringstream expect, got;
    writeResultsJson(one, expect);
    writeResultsJson(back, got);
    EXPECT_EQ(got.str(), expect.str());
}

TEST(Protocol, FetchRequestNamesTheKeyUnderV3)
{
    const JsonValue req = fetchRequest("some-content-key");
    EXPECT_EQ(req.get("op").asString(), "fetch");
    EXPECT_EQ(req.get("key").asString(), "some-content-key");
    EXPECT_EQ(req.get("version").asU64(0), kProtocolVersion);
    // Protocol v3 is the replication protocol: these ops must never
    // be emitted with an older (or missing) version stamp.
    EXPECT_GE(kProtocolVersion, 3u);
}
