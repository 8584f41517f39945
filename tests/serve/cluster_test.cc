/**
 * End-to-end tests for the sharded dcgserved cluster: byte-identical
 * grids through any entry node, records living on exactly the shard
 * the ring designates, transparent forwarding of unversioned requests
 * (served as the current version), not_owner for forwarded submits of
 * foreign keys, and the one-version envelope (unsupported_version
 * rejection for every other version).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "exp/engine.hh"
#include "exp/job.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/report.hh"
#include "trace/spec2000.hh"

using namespace dcg;
using namespace dcg::serve;

namespace {

constexpr std::uint64_t kInsts = 2000;
constexpr std::uint64_t kWarmup = 500;

std::string
freshDir(const std::string &tag)
{
    namespace fs = std::filesystem;
    const fs::path p = fs::temp_directory_path() /
        ("dcg_cluster_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(p);
    return p.string();
}

std::vector<JobSpec>
smallGridSpecs()
{
    std::vector<JobSpec> specs;
    for (const char *bench : {"gzip", "mcf", "twolf", "art"}) {
        for (const char *scheme : {"base", "dcg"}) {
            JobSpec s;
            s.bench = bench;
            s.scheme = scheme;
            s.insts = kInsts;
            s.warmup = kWarmup;
            specs.push_back(s);
        }
    }
    return specs;
}

/**
 * smallGridSpecs(), widened with ddcg jobs on further benchmarks until
 * both nodes of @p ring own a key. The ring hashes the ephemeral ports
 * this run got, so a fixed grid occasionally lands on one node.
 */
std::vector<JobSpec>
specsOnBothShards(const HashRing &ring)
{
    std::vector<JobSpec> specs = smallGridSpecs();
    const auto onNode0 = [&] {
        std::size_t n = 0;
        for (const JobSpec &s : specs)
            n += ring.ownerIndex(exp::jobKey(s.toJob())) == 0;
        return n;
    };
    for (const std::string &bench : allSpecNames()) {
        const std::size_t n = onNode0();
        if (n > 0 && n < specs.size())
            break;
        JobSpec s = specs.front();
        s.bench = bench;
        s.scheme = "ddcg";
        specs.push_back(s);
    }
    return specs;
}

std::string
asJson(const std::vector<RunResult> &results)
{
    std::ostringstream os;
    writeResultsJson(results, os);
    return os.str();
}

/**
 * A live N-node cluster on ephemeral ports: every Server is bound
 * first (so the real ports are known), then they all learn the full
 * ring via configureCluster(), then the event loops start.
 */
class ClusterFixture
{
  public:
    explicit ClusterFixture(std::size_t n,
                            const std::string &storeTag = "")
    {
        for (std::size_t i = 0; i < n; ++i) {
            ServerConfig cfg;
            cfg.host = "127.0.0.1";
            cfg.port = 0;
            cfg.workers = 2;
            if (!storeTag.empty()) {
                storeDirs.push_back(
                    freshDir(storeTag + std::to_string(i)));
                cfg.storeDir = storeDirs.back();
            }
            servers.push_back(std::make_unique<Server>(cfg));
        }
        std::vector<Endpoint> ring;
        for (const auto &s : servers)
            ring.push_back(Endpoint{"127.0.0.1", s->port()});
        for (std::size_t i = 0; i < n; ++i)
            servers[i]->configureCluster(ring, ring[i].str());
        for (const auto &s : servers)
            threads.emplace_back([&srv = *s] { srv.run(); });
    }

    ~ClusterFixture()
    {
        for (const auto &s : servers)
            s->requestStop();
        for (std::thread &t : threads)
            t.join();
        namespace fs = std::filesystem;
        for (const std::string &d : storeDirs)
            fs::remove_all(d);
    }

    std::string address(std::size_t i) const
    {
        return "127.0.0.1:" + std::to_string(servers[i]->port());
    }

    Endpoint endpoint(std::size_t i) const
    {
        return Endpoint{"127.0.0.1", servers[i]->port()};
    }

    Server &node(std::size_t i) { return *servers[i]; }
    std::size_t size() const { return servers.size(); }
    const std::string &storeDir(std::size_t i) const
    {
        return storeDirs[i];
    }

  private:
    std::vector<std::unique_ptr<Server>> servers;
    std::vector<std::thread> threads;
    std::vector<std::string> storeDirs;
};

} // namespace

TEST(Cluster, GridIsByteIdenticalThroughEitherEntryNode)
{
    const auto specs = smallGridSpecs();

    exp::Engine local(2);
    std::vector<exp::Job> jobs;
    for (const JobSpec &s : specs)
        jobs.push_back(s.toJob());
    const std::string expected = asJson(local.run(jobs));

    ClusterFixture fx(2);

    // Single-endpoint client against node 0: every job the ring
    // assigns to node 1 is transparently forwarded.
    ClusterClient viaA({fx.endpoint(0)});
    EXPECT_EQ(asJson(viaA.runJobs(specs)), expected);

    // Same grid through the other entry node.
    ClusterClient viaB({fx.endpoint(1)});
    EXPECT_EQ(asJson(viaB.runJobs(specs)), expected);

    // Ring-aware fan-out over both nodes.
    std::vector<Endpoint> eps{fx.endpoint(0), fx.endpoint(1)};
    ClusterClient fanout(eps);
    EXPECT_EQ(asJson(fanout.runJobs(specs)), expected);
}

TEST(Cluster, EachResultIsStoredOnExactlyTheOwningShard)
{
    namespace fs = std::filesystem;
    ClusterFixture fx(2, "shard");
    const HashRing &ring = fx.node(0).ringView();
    ASSERT_EQ(ring.nodeCount(), 2u);

    const auto specs = specsOnBothShards(ring);
    std::vector<std::string> keys;
    for (const JobSpec &s : specs)
        keys.push_back(exp::jobKey(s.toJob()));
    ClusterClient client({fx.endpoint(0)});  // everything enters via node 0
    client.runJobs(specs);

    // The grid must actually exercise forwarding, or this test proves
    // nothing about shard placement.
    std::size_t remoteOwned = 0;
    for (const std::string &key : keys)
        if (ring.ownerIndex(key) != 0)
            ++remoteOwned;
    EXPECT_GT(remoteOwned, 0u);
    EXPECT_LT(remoteOwned, keys.size());

    // Probe on-disk placement through throwaway store handles rooted
    // at the same directories (all writes finished with runJobs): a
    // record exists on the owner's shard and nowhere else.
    ResultStore probe0(fx.storeDir(0));
    ResultStore probe1(fx.storeDir(1));
    for (const std::string &key : keys) {
        const bool owned0 = ring.ownerIndex(key) == 0;
        EXPECT_EQ(fs::exists(probe0.recordPath(key)), owned0)
            << key;
        EXPECT_EQ(fs::exists(probe1.recordPath(key)), !owned0)
            << key;
    }
}

TEST(Cluster, UnversionedRequestIsForwardedAndAnsweredAsCurrentVersion)
{
    ClusterFixture fx(2);

    // Find a spec owned by node 1, then submit it raw — no "version"
    // member — through node 0.
    const HashRing &ring = fx.node(0).ringView();
    JobSpec spec;
    spec.insts = kInsts;
    spec.warmup = kWarmup;
    // Search the full benchmark set: the ring hashes ephemeral ports,
    // so a short candidate list occasionally lands entirely on node 0.
    bool found = false;
    for (const std::string &bench : allSpecNames()) {
        spec.bench = bench;
        if (ring.ownerIndex(exp::jobKey(spec.toJob())) == 1) {
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "no test bench hashes to node 1";

    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(fx.endpoint(0), err)) << err;

    // One submit, answered once the owner has run the job.
    JsonValue submit = JsonValue::object();
    submit.set("op", JsonValue::string("submit"));
    submit.set("job", spec.toJson());
    JsonValue resp;
    ASSERT_TRUE(conn.roundTrip(submit, resp, err)) << err;
    ASSERT_TRUE(resp.get("ok").asBool(false)) << resp.dump();
    EXPECT_EQ(resp.get("version").asU64(0), kProtocolVersion);
    EXPECT_FALSE(resp.has("id")) << resp.dump();
    EXPECT_FALSE(resp.has("status")) << resp.dump();

    std::vector<RunResult> results;
    ASSERT_TRUE(resultsFromJson(resp.get("result"), results, err))
        << err;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].benchmark, spec.bench);
}

TEST(Cluster, ForwardedSubmitForForeignKeyYieldsNotOwnerWithOwnerAddress)
{
    ClusterFixture fx(2);
    const HashRing &ring = fx.node(0).ringView();

    JobSpec spec;
    spec.insts = kInsts;
    spec.warmup = kWarmup;
    // Full benchmark set for the same reason as the unversioned test
    // above.
    bool found = false;
    for (const std::string &bench : allSpecNames()) {
        spec.bench = bench;
        if (ring.ownerIndex(exp::jobKey(spec.toJob())) == 1) {
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found);

    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(fx.endpoint(0), err)) << err;

    // A forwarded submit for a foreign key is bounced, never
    // re-forwarded — the loop-prevention invariant.
    JsonValue submit = JsonValue::object();
    submit.set("op", JsonValue::string("submit"));
    submit.set("job", spec.toJson());
    submit.set("forwarded", JsonValue::boolean(true));
    stampVersion(submit, kProtocolVersion);
    JsonValue resp;
    ASSERT_TRUE(conn.roundTrip(submit, resp, err)) << err;
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "not_owner");
    EXPECT_EQ(resp.get("redirect").asString(), fx.address(1));
    EXPECT_EQ(resp.get("version").asU64(0), kProtocolVersion);
}

TEST(Cluster, FutureProtocolVersionIsRejectedStructurally)
{
    ClusterFixture fx(1);
    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(fx.endpoint(0), err)) << err;

    // Every version but the one this tree speaks — older ones
    // included — gets the structured rejection, rid echoed.
    std::vector<std::uint64_t> rejected;
    for (std::uint64_t v = 1; v < kProtocolVersion; ++v)
        rejected.push_back(v);
    rejected.push_back(kProtocolVersion + 1);
    rejected.push_back(kProtocolVersion + 93);
    JsonValue req = JsonValue::object();
    req.set("op", JsonValue::string("stats"));
    JsonValue resp;
    for (const std::uint64_t v : rejected) {
        req.set("version", JsonValue::integer(v));
        req.set("rid", JsonValue::integer(v + 100));
        ASSERT_TRUE(conn.roundTrip(req, resp, err)) << err;
        EXPECT_FALSE(resp.get("ok").asBool(true)) << "version " << v;
        EXPECT_EQ(resp.get("error").asString(), "unsupported_version")
            << "version " << v;
        EXPECT_EQ(resp.get("supported").asU64(0), kProtocolVersion);
        EXPECT_EQ(resp.get("rid").asU64(0), v + 100);
        EXPECT_EQ(resp.get("version").asU64(0), kProtocolVersion);
    }

    // The current version is served.
    req.set("version", JsonValue::integer(std::uint64_t{kProtocolVersion}));
    ASSERT_TRUE(conn.roundTrip(req, resp, err)) << err;
    EXPECT_TRUE(resp.get("ok").asBool(false)) << resp.dump();

    // A garbage version is a bad_request, not a crash.
    req.set("version", JsonValue::string("two"));
    ASSERT_TRUE(conn.roundTrip(req, resp, err)) << err;
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "bad_request");
}

TEST(Cluster, StatsAggregateAcrossNodes)
{
    ClusterFixture fx(2);
    std::vector<Endpoint> eps{fx.endpoint(0), fx.endpoint(1)};
    ClusterClient client(eps);
    client.runJobs(smallGridSpecs());

    const JsonValue stats = client.stats();
    EXPECT_EQ(stats.get("nodes_total").asU64(0), 2u);
    EXPECT_TRUE(stats.has("nodes"));
    // Fan-out means neither node simulated the whole grid, but the
    // cluster as a whole simulated every job exactly once.
    EXPECT_EQ(stats.get("simulations").asU64(0),
              smallGridSpecs().size());
    // Fields that describe a node rather than count its work are not
    // summed.
    EXPECT_EQ(stats.get("protocol_version").asU64(0), kProtocolVersion);
    EXPECT_EQ(stats.get("cluster_nodes").asU64(0), 2u);
    EXPECT_EQ(stats.get("epoch").asU64(99), 0u);
    EXPECT_EQ(stats.get("requests_inflight").asU64(99), 0u);
    const JsonValue &perNode = stats.get("nodes");
    EXPECT_TRUE(perNode.has(fx.address(0)));
    EXPECT_TRUE(perNode.has(fx.address(1)));
}
