/**
 * Failover tests: a replicated cluster keeps serving byte-identical
 * grids — with zero re-simulations for already-replicated keys —
 * when a node dies, whether the client is ring-aware (it resubmits a
 * dead node's jobs to the next node in ring order) or knows a single
 * entry node; either way the servers walk each key's holders. A
 * revived node with a wiped disk repairs itself from its followers;
 * an unreplicated cluster still surfaces the structured
 * forward_failed error; a blackholed (partitioned, not dead) follower
 * link only costs bounded timeouts and push failures, never the grid;
 * and without a peer timeout such a link cannot hold a stopping node
 * past its drain grace.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
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

/**
 * The node to kill so a failover actually happens: the primary owner
 * of the first grid key. The ring hashes ephemeral "host:port" names,
 * so which node owns what differs per run — the victim must be looked
 * up, never hard-coded.
 */
std::size_t
victimNode(const HashRing &ring)
{
    return ring.ownerIndex(exp::jobKey(smallGridSpecs()[0].toJob()));
}

/** Sum of a stats counter over every node except @p dead. */
std::uint64_t
survivorStat(dcg::serve::testing::ReplicaCluster &fx,
             std::size_t dead, const std::string &name)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < fx.size(); ++i)
        if (i != dead && fx.alive(i))
            total += fx.nodeStats(i).get(name).asU64(0);
    return total;
}

} // namespace

TEST(Failover, RingAwareClientFailsOverWhenANodeDies)
{
    const std::string expected = localGridJson();
    ReplicaCluster fx(3, 2, "clientfo");
    fx.start();
    const std::size_t victim = victimNode(fx.node(0).ringView());

    std::vector<Endpoint> eps = fx.boundEndpoints();
    {
        ClusterClient warm(eps);
        EXPECT_EQ(asJson(warm.runJobs(smallGridSpecs())), expected);
    }
    fx.flushReplication();
    const std::uint64_t liveSimsBefore =
        survivorStat(fx, victim, "simulations");

    fx.killNode(victim);

    // No replica count and no deadline: a refused connection is the
    // whole failover signal.
    ClusterClient client(eps);
    EXPECT_EQ(asJson(client.runJobs(smallGridSpecs())), expected);
    EXPECT_GT(client.failovers(), 0u);

    // The survivors answered every re-routed key from their replica
    // records: not a single new simulation anywhere.
    EXPECT_EQ(survivorStat(fx, victim, "simulations"),
              liveSimsBefore);

    // The dead node costs the cluster stats nothing but its own entry.
    const JsonValue stats = client.stats();
    EXPECT_EQ(stats.get("nodes_unreachable").asU64(99), 1u);
    EXPECT_EQ(stats.get("simulations").asU64(0),
              survivorStat(fx, victim, "simulations"));
    EXPECT_TRUE(stats.get("nodes")
                    .get(fx.address(victim))
                    .has("error"))
        << stats.dump();
}

TEST(Failover, SingleEndpointClientIsServedThroughServerSideFailover)
{
    const std::string expected = localGridJson();
    ReplicaCluster fx(3, 2, "serverfo");
    fx.start();
    const std::size_t victim = victimNode(fx.node(0).ringView());
    const std::size_t entry = victim == 0 ? 1 : 0;

    {
        ClusterClient warm({fx.endpoint(entry)});
        EXPECT_EQ(asJson(warm.runJobs(smallGridSpecs())), expected);
    }
    fx.flushReplication();
    const std::uint64_t liveSimsBefore =
        survivorStat(fx, victim, "simulations");

    fx.killNode(victim);

    // A client that knows only a live entry node: the *server* walks
    // each dead key's holders and serves from a replica — the client
    // never learns anything happened.
    ClusterClient client({fx.endpoint(entry)});
    EXPECT_EQ(asJson(client.runJobs(smallGridSpecs())), expected);
    EXPECT_EQ(client.failovers(), 0u);
    EXPECT_GT(fx.nodeStats(entry).get("failovers").asU64(0), 0u);

    EXPECT_EQ(survivorStat(fx, victim, "simulations"),
              liveSimsBefore);
}

TEST(Failover, UnreplicatedClusterSurfacesForwardFailed)
{
    ReplicaCluster fx(2, 1, "");
    fx.start();
    const HashRing &ring = fx.node(0).ringView();

    JobSpec spec = smallGridSpecs()[0];
    const std::size_t owner =
        ring.ownerIndex(exp::jobKey(spec.toJob()));
    const std::size_t entry = owner == 0 ? 1 : 0;

    fx.killNode(owner);

    // Protocol-level (the CLI client would rightly fatal): with one
    // copy per key there is nowhere to fail over to, and the submit
    // is answered with the structured forward_failed error.
    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(fx.endpoint(entry), err)) << err;
    JsonValue submit = JsonValue::object();
    submit.set("op", JsonValue::string("submit"));
    submit.set("job", spec.toJson());
    stampVersion(submit, kProtocolVersion);
    JsonValue resp;
    ASSERT_TRUE(conn.roundTrip(submit, resp, err)) << err;
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "forward_failed");
    EXPECT_FALSE(resp.has("status")) << resp.dump();
    EXPECT_EQ(fx.nodeStats(entry).get("requests_inflight").asU64(99),
              0u);
}

TEST(Failover, RevivedPrimaryReadRepairsItselfFromAFollower)
{
    const std::string expected = localGridJson();
    ReplicaCluster fx(3, 2, "readrepair");
    fx.start();
    // Take a full ring snapshot up front: the victim's own ringView
    // dies with it.
    const HashRing ring = fx.node(0).ringView();
    const std::size_t victim = victimNode(ring);

    std::vector<Endpoint> eps = fx.boundEndpoints();
    {
        ClusterClient warm(eps);
        EXPECT_EQ(asJson(warm.runJobs(smallGridSpecs())), expected);
    }
    fx.flushReplication();

    // Lose the victim; its keys are served from the followers.
    fx.killNode(victim);
    {
        ClusterClient client(eps);
        EXPECT_EQ(asJson(client.runJobs(smallGridSpecs())), expected);
        EXPECT_GT(client.failovers(), 0u);
    }

    // The victim comes back empty and owns its keys again. Each of
    // them misses its disk, and the node fetches the record from a
    // follower instead of simulating: server-side read-repair.
    fx.restartNode(victim, /*wipeStore=*/true);
    ClusterClient client(eps);
    EXPECT_EQ(asJson(client.runJobs(smallGridSpecs())), expected);
    EXPECT_EQ(client.failovers(), 0u);
    const JsonValue revived = fx.nodeStats(victim);
    EXPECT_GT(revived.get("read_repairs").asU64(0), 0u);
    EXPECT_EQ(revived.get("simulations").asU64(99), 0u);

    ResultStore probe(fx.storeDir(victim));
    std::size_t owned = 0;
    std::size_t repaired = 0;
    for (const JobSpec &s : smallGridSpecs()) {
        const std::string key = exp::jobKey(s.toJob());
        if (ring.ownerIndex(key) != victim)
            continue;
        ++owned;
        RunResult r;
        if (probe.get(key, r))
            ++repaired;
    }
    EXPECT_GT(owned, 0u);
    EXPECT_EQ(repaired, owned);
}

TEST(Failover, MidGridNodeLossStillYieldsAByteIdenticalGrid)
{
    const std::string expected = localGridJson();
    ReplicaCluster fx(3, 2, "midgrid");
    fx.start();

    // Cold cluster, node killed while the grid is in flight: however
    // the timing lands — jobs drained on the dying node, resubmitted
    // by the client, re-run on a follower — determinism means the
    // collected grid must be byte-identical. (No failover-count
    // assertion here: the race is real and either outcome is legal.)
    std::vector<Endpoint> eps = fx.boundEndpoints();
    ClusterClient client(eps, /*timeoutMs=*/2000);
    std::string got;
    std::thread grid([&] {
        got = asJson(client.runJobs(smallGridSpecs()));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    fx.killNode(0);
    grid.join();
    EXPECT_EQ(got, expected);
}

TEST(Failover, BlackholedFollowerCostsPushFailuresNotTheGrid)
{
    const std::string expected = localGridJson();
    // Ring identity = proxy addresses, so *every* link — client to
    // node and node to node — runs through faultnet.
    ReplicaCluster fx(2, 2, "bhole", /*peerTimeoutMs=*/300);
    FaultProxy p0(fx.endpoint(0));
    FaultProxy p1(fx.endpoint(1));
    fx.start({p0.address(), p1.address()});

    // Partition the node owning the first grid key (so at least one
    // submit must fail over): connections still reach its proxy — so
    // nothing fails fast — and then hang; only timeouts make
    // progress.
    const std::size_t dark = victimNode(fx.node(0).ringView());
    const std::size_t lit = dark == 0 ? 1 : 0;
    FaultProxy &darkProxy = dark == 0 ? p0 : p1;
    darkProxy.setMode(FaultProxy::Mode::Blackhole);

    std::vector<Endpoint> eps{p0.address(), p1.address()};
    ClusterClient client(eps, /*timeoutMs=*/2000);
    EXPECT_EQ(asJson(client.runJobs(smallGridSpecs())), expected);
    EXPECT_GT(client.failovers(), 0u);

    fx.flushReplication();
    const JsonValue litStats = fx.nodeStats(lit);
    // The lit node absorbed the whole grid: its own keys plus every
    // failed-over key of the partitioned node, whose fan-out pushes
    // all timed out.
    EXPECT_EQ(litStats.get("simulations").asU64(0),
              smallGridSpecs().size());
    EXPECT_GT(litStats.get("replica_push_failures").asU64(0), 0u);
    EXPECT_GT(litStats.get("failovers").asU64(0), 0u);

    // Heal the partition: the dark node refills from the lit node's
    // records via fetch read-repair — still zero simulations there.
    darkProxy.setMode(FaultProxy::Mode::Pass);
    ClusterClient healed(eps, /*timeoutMs=*/2000);
    EXPECT_EQ(asJson(healed.runJobs(smallGridSpecs())), expected);
    const JsonValue darkStats = fx.nodeStats(dark);
    EXPECT_EQ(darkStats.get("simulations").asU64(99), 0u);
    EXPECT_GT(darkStats.get("read_repairs").asU64(0), 0u);
}

TEST(Failover, BlackholedHolderCannotHoldAStoppingNodePastItsDrainGrace)
{
    // No peer timeout: only the drain grace bounds how long a stopping
    // node waits on a peer that accepts connections and never answers.
    constexpr unsigned kGraceMs = 1000;
    ReplicaCluster fx(2, 2, "bholedrain", /*peerTimeoutMs=*/0, kGraceMs);
    FaultProxy p0(fx.endpoint(0));
    FaultProxy p1(fx.endpoint(1));
    fx.start({p0.address(), p1.address()});

    // The node owning the first grid key serves it; its read-repair
    // fetch goes to the other holder, whose link is blackholed.
    const std::size_t node = victimNode(fx.node(0).ringView());
    FaultProxy &darkProxy = node == 0 ? p1 : p0;
    darkProxy.setMode(FaultProxy::Mode::Blackhole);

    std::thread submitter([&] {
        Connection conn;
        std::string err;
        JsonValue submit = JsonValue::object();
        submit.set("op", JsonValue::string("submit"));
        submit.set("job", smallGridSpecs()[0].toJson());
        JsonValue resp;
        // Answered or cut by the stop; either ends the exchange.
        if (conn.open(fx.endpoint(node), err))
            conn.roundTrip(submit, resp, err);
    });

    // Wait until the read-repair walk's fetch to the dark holder is
    // open.
    bool fetching = false;
    for (int i = 0; i < 500 && !fetching; ++i) {
        const JsonValue st = fx.nodeStats(node);
        fetching = st.get("fetches_inflight").asU64(0) >= 1 &&
                   st.get("peer_requests").asU64(0) >= 1 &&
                   darkProxy.connectionsSeen() >= 1;
        if (!fetching)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(fetching) << "no read-repair fetch reached the holder";

    const auto t0 = std::chrono::steady_clock::now();
    auto stopped = std::async(std::launch::async,
                              [&] { fx.killNode(node); });
    const bool inTime =
        stopped.wait_for(std::chrono::milliseconds(kGraceMs + 4000)) ==
        std::future_status::ready;
    if (!inTime) {
        // Heal the link so the test ends instead of hanging with the
        // node: a sever alone would leave later connections dark.
        darkProxy.setMode(FaultProxy::Mode::Pass);
        darkProxy.severActive();
    }
    stopped.get();
    submitter.join();
    EXPECT_TRUE(inTime)
        << "run() outlived the drain grace by more than 4 s ("
        << std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
               .count()
        << " ms)";
}
