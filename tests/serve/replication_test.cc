/**
 * Replication tests: with --replicas=k every key's record lands on
 * exactly the k ring successors (replica-marked on the followers),
 * a cold-restarted node serves its keys from the surviving replicas
 * with zero re-simulations, a corrupt replica heals through
 * re-simulation instead of failing, no node starts a thread of its
 * own for replication, no worker waits on a read-repair fetch, and
 * the `replicate`/`fetch` ops hold their protocol contract.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <thread>

#include "exp/engine.hh"
#include "exp/job.hh"
#include "serve/client.hh"
#include "serve/faultnet.hh"
#include "serve/replica_cluster.hh"
#include "sim/report.hh"

using namespace dcg;
using namespace dcg::serve;
using namespace dcg::serve::testing;

namespace {

constexpr std::uint64_t kInsts = 2000;
constexpr std::uint64_t kWarmup = 500;

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

std::string
asJson(const std::vector<RunResult> &results)
{
    std::ostringstream os;
    writeResultsJson(results, os);
    return os.str();
}

std::string
localGridJson()
{
    exp::Engine local(2);
    std::vector<exp::Job> jobs;
    for (const JobSpec &s : smallGridSpecs())
        jobs.push_back(s.toJob());
    return asJson(local.run(jobs));
}

/** Threads in this process, as the kernel lists them. */
std::size_t
threadCount()
{
    namespace fs = std::filesystem;
    return static_cast<std::size_t>(
        std::distance(fs::directory_iterator("/proc/self/task"),
                      fs::directory_iterator()));
}

std::vector<std::string>
gridKeys()
{
    std::vector<std::string> keys;
    for (const JobSpec &s : smallGridSpecs())
        keys.push_back(exp::jobKey(s.toJob()));
    return keys;
}

} // namespace

TEST(Replication, FanOutLandsOnExactlyTheReplicaSet)
{
    namespace fs = std::filesystem;
    ReplicaCluster fx(3, 2, "fanout");
    fx.start();

    std::vector<Endpoint> eps = fx.boundEndpoints();
    ClusterClient client(eps);
    client.runJobs(smallGridSpecs());
    fx.flushReplication();

    const HashRing &ring = fx.node(0).ringView();
    std::vector<std::unique_ptr<ResultStore>> probes;
    for (std::size_t i = 0; i < fx.size(); ++i)
        probes.push_back(
            std::make_unique<ResultStore>(fx.storeDir(i)));

    for (const std::string &key : gridKeys()) {
        const auto holders = ring.ownerIndices(key, 2);
        ASSERT_EQ(holders.size(), 2u);
        ASSERT_NE(holders[0], holders[1]);
        for (std::size_t i = 0; i < fx.size(); ++i) {
            const bool holds =
                i == holders[0] || i == holders[1];
            EXPECT_EQ(fs::exists(probes[i]->recordPath(key)), holds)
                << "node " << i << " key " << key;
        }
        // The primary computed the record; the follower only ever
        // received it — the header marker tells them apart.
        EXPECT_FALSE(probes[holders[0]]->recordIsReplica(key)) << key;
        EXPECT_TRUE(probes[holders[1]]->recordIsReplica(key)) << key;
    }

    // Every fan-out push succeeded on a healthy cluster: one per key.
    EXPECT_EQ(fx.sumStat("replicas_written"), gridKeys().size());
    EXPECT_EQ(fx.sumStat("replica_push_failures"), 0u);
}

TEST(Replication, StoreBackedNodesStartNoThreadBeforeRun)
{
    // A node runs its I/O loop and its workers and nothing else: its
    // replica pushes ride the loop's peer links. Building store-backed
    // k=2 nodes and joining them into a ring starts no thread.
    const std::size_t before = threadCount();
    ReplicaCluster fx(2, 2, "nothread");
    const std::vector<Endpoint> eps = fx.boundEndpoints();
    for (std::size_t i = 0; i < fx.size(); ++i)
        fx.node(i).configureCluster(eps, eps[i].str());
    EXPECT_EQ(threadCount(), before);
}

TEST(Replication, ReadRepairWalkNeverHoldsAWorker)
{
    // One worker per node, and a sibling that accepts and never
    // answers: a read-repair fetch to it ends only at the peer
    // timeout, far beyond how long the stored job may take.
    constexpr unsigned kPeerTimeoutMs = 10000;
    constexpr auto kAnswerWithin = std::chrono::milliseconds(2000);
    ReplicaCluster fx(2, 2, "nowait", kPeerTimeoutMs,
                      ServerConfig{}.drainGraceMs, /*workers=*/1);
    FaultProxy p0(fx.endpoint(0));
    FaultProxy p1(fx.endpoint(1));
    fx.start({p0.address(), p1.address()});
    constexpr std::size_t node = 0;
    FaultProxy &darkProxy = p1;

    // Two keys node 0 owns: one nobody has computed, and one whose
    // record is on node 0's disk but not in its memory cache.
    std::vector<JobSpec> owned;
    for (std::uint64_t seed = 1; owned.size() < 2 && seed < 256;
         ++seed) {
        JobSpec s;
        s.bench = "gzip";
        s.insts = kInsts;
        s.warmup = kWarmup;
        s.seed = seed;
        if (fx.node(node).ringView().ownerIndex(
                exp::jobKey(s.toJob())) == node)
            owned.push_back(s);
    }
    ASSERT_EQ(owned.size(), 2u);
    const JobSpec &fresh = owned[0];
    const JobSpec &stored = owned[1];
    exp::Engine local(1);
    const std::string freshWant = asJson({local.runOne(fresh.toJob())});
    const RunResult storedResult = local.runOne(stored.toJob());
    ResultStore(fx.storeDir(node))
        .put(exp::jobKey(stored.toJob()), storedResult);

    darkProxy.setMode(FaultProxy::Mode::Blackhole);
    const auto submit = [&](const JobSpec &spec) {
        Connection conn;
        std::string err;
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::string("submit"));
        req.set("job", spec.toJson());
        JsonValue resp;
        std::vector<RunResult> one;
        if (!conn.open(fx.endpoint(node), err) ||
            !conn.roundTrip(req, resp, err) ||
            !resultsFromJson(resp.get("result"), one, err))
            return "error: " + err;
        return asJson(one);
    };
    std::string freshGot;
    std::thread freshSubmitter([&] { freshGot = submit(fresh); });

    // The fresh job's walk has sent its fetch into the blackhole.
    bool walking = false;
    for (int i = 0; i < 500 && !walking; ++i) {
        walking = fx.nodeStats(node).get("peer_requests").asU64(0) >= 1 &&
                  darkProxy.connectionsSeen() >= 1;
        if (!walking)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(walking) << "no read-repair fetch reached the sibling";
    JsonValue st = fx.nodeStats(node);
    EXPECT_EQ(st.get("busy_workers").asU64(99), 0u);
    EXPECT_EQ(st.get("fetches_inflight").asU64(0), 1u);

    // The stored job is served from the local store while the walk is
    // still open — no worker, no peer, no wait.
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(submit(stored), asJson({storedResult}));
    EXPECT_LT(std::chrono::steady_clock::now() - t0, kAnswerWithin);
    st = fx.nodeStats(node);
    EXPECT_EQ(st.get("disk_hits").asU64(0), 1u);
    EXPECT_EQ(st.get("simulations").asU64(99), 0u);
    EXPECT_EQ(st.get("fetches_inflight").asU64(0), 1u);

    // Heal the link: the cut fails the fetch, the walk ends as a
    // miss, and only then does the worker simulate the fresh job.
    darkProxy.setMode(FaultProxy::Mode::Pass);
    darkProxy.severActive();
    freshSubmitter.join();
    EXPECT_EQ(freshGot, freshWant);
    st = fx.nodeStats(node);
    EXPECT_EQ(st.get("simulations").asU64(0), 1u);
    EXPECT_EQ(st.get("replica_misses").asU64(0), 1u);
    EXPECT_EQ(st.get("fetches_inflight").asU64(99), 0u);
    EXPECT_EQ(st.get("fetches_inflight_peak").asU64(0), 1u);
}

TEST(Replication, ColdRestartServesFromSurvivingReplicas)
{
    const std::string expected = localGridJson();
    ReplicaCluster fx(3, 2, "cold");
    fx.start();

    std::vector<Endpoint> eps = fx.boundEndpoints();
    {
        ClusterClient warm(eps);
        EXPECT_EQ(asJson(warm.runJobs(smallGridSpecs())), expected);
    }
    fx.flushReplication();

    // Restart a node that is primary for at least one grid key, or
    // the scenario proves nothing. The ring hashes "host:port" names
    // and the ports are ephemeral, so the victim must be *looked up*,
    // not hard-coded: the primary of the first grid key always
    // qualifies.
    const std::size_t victim =
        fx.node(0).ringView().ownerIndex(gridKeys().front());

    const std::uint64_t simsBefore = fx.sumStat("simulations");
    const std::uint64_t victimSims =
        fx.nodeStats(victim).get("simulations").asU64(0);
    EXPECT_EQ(simsBefore, gridKeys().size());

    // Cold restart: the victim comes back on the same port with an
    // empty disk and an empty cache — the "replaced machine".
    fx.killNode(victim);
    fx.restartNode(victim, /*wipeStore=*/true);

    ClusterClient after(eps);
    EXPECT_EQ(asJson(after.runJobs(smallGridSpecs())), expected);

    // Zero re-simulations anywhere: the victim pulled every primary
    // key it lost from a surviving replica holder (read-repair), and
    // the other nodes answered from their warm layers.
    const JsonValue nv = fx.nodeStats(victim);
    EXPECT_EQ(nv.get("simulations").asU64(99), 0u);
    EXPECT_GT(nv.get("read_repairs").asU64(0), 0u);
    EXPECT_EQ(fx.sumStat("simulations"), simsBefore - victimSims);
}

TEST(Replication, CorruptReplicaHealsThroughReSimulation)
{
    JobSpec spec;
    spec.bench = "gzip";
    spec.insts = kInsts;
    spec.warmup = kWarmup;
    const std::string key = exp::jobKey(spec.toJob());

    ReplicaCluster fx(3, 2, "heal");
    fx.start();
    const auto holders = fx.node(0).ringView().ownerIndices(key, 2);
    ASSERT_EQ(holders.size(), 2u);
    const std::size_t primary = holders[0];
    const std::size_t follower = holders[1];

    std::vector<Endpoint> eps = fx.boundEndpoints();
    const std::string expected = [&] {
        ClusterClient warm(eps);
        return asJson(warm.runJobs({spec}));
    }();
    fx.flushReplication();

    // Corrupt the follower's replica record on disk, then lose the
    // primary's copy entirely (cold restart with a wiped store): no
    // valid record of the key survives anywhere.
    {
        ResultStore probe(fx.storeDir(follower));
        std::ofstream f(probe.recordPath(key), std::ios::trunc);
        f << "this is not a record\n";
    }
    fx.killNode(primary);
    fx.restartNode(primary, /*wipeStore=*/true);

    // The fetch finds only the corrupt replica (a miss, not an
    // error), so the primary re-simulates — and the fresh result
    // fans out again, healing the follower's record.
    ClusterClient after(eps);
    EXPECT_EQ(asJson(after.runJobs({spec})), expected);
    fx.flushReplication();

    const JsonValue p = fx.nodeStats(primary);
    EXPECT_EQ(p.get("simulations").asU64(0), 1u);
    EXPECT_GE(p.get("replica_misses").asU64(0), 1u);

    ResultStore healed(fx.storeDir(follower));
    RunResult r;
    EXPECT_TRUE(healed.get(key, r));
    EXPECT_TRUE(healed.recordIsReplica(key));
}

TEST(Replication, ReplicateOpStoresAReplicaMarkedRecord)
{
    JobSpec spec;
    spec.bench = "mcf";
    spec.insts = kInsts;
    spec.warmup = kWarmup;
    const exp::Job job = spec.toJob();
    const std::string key = exp::jobKey(job);
    exp::Engine local(1);
    const RunResult result = local.run({job})[0];

    ReplicaCluster fx(1, 1, "proto");
    fx.start();

    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(fx.endpoint(0), err)) << err;
    JsonValue resp;
    ASSERT_TRUE(conn.roundTrip(replicateRequest(key, result), resp,
                               err))
        << err;
    ASSERT_TRUE(resp.get("ok").asBool(false))
        << resp.get("detail").asString();
    EXPECT_EQ(resp.get("version").asU64(0), kProtocolVersion);

    // The record is on disk, replica-marked, and fetch returns the
    // exact bytes that were pushed.
    ResultStore probe(fx.storeDir(0));
    EXPECT_TRUE(probe.recordIsReplica(key));
    ASSERT_TRUE(conn.roundTrip(fetchRequest(key), resp, err)) << err;
    ASSERT_TRUE(resp.get("ok").asBool(false));
    std::vector<RunResult> one{result};
    EXPECT_EQ(resp.get("result").dump(), resultsToJson(one).dump());
}

TEST(Replication, ReplicateAndFetchRejectMalformedRequests)
{
    ReplicaCluster fx(1, 1, "protoerr");
    fx.start();
    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(fx.endpoint(0), err)) << err;

    // fetch of a key nobody stored: structured not_found.
    JsonValue resp;
    ASSERT_TRUE(conn.roundTrip(fetchRequest("no-such-key"), resp,
                               err))
        << err;
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "not_found");

    // fetch with an empty key: bad_request.
    ASSERT_TRUE(conn.roundTrip(fetchRequest(""), resp, err)) << err;
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "bad_request");

    // replicate without a result payload: bad_request.
    JsonValue bad = JsonValue::object();
    bad.set("op", JsonValue::string("replicate"));
    bad.set("key", JsonValue::string("k"));
    stampVersion(bad, kProtocolVersion);
    ASSERT_TRUE(conn.roundTrip(bad, resp, err)) << err;
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "bad_request");
}

TEST(Replication, ReplicateOpNeedsAPersistentStore)
{
    RunResult r;
    ReplicaCluster fx(1, 1, "");
    fx.start();
    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(fx.endpoint(0), err)) << err;
    JsonValue resp;
    ASSERT_TRUE(conn.roundTrip(replicateRequest("k", r), resp, err))
        << err;
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "no_store");
}
