/**
 * Elastic-membership tests: live join/leave on the versioned ring.
 *
 *  - a join moves exactly the arcs the ring remaps (~1/N) and nothing
 *    else, and the moved records are served without re-simulation;
 *  - a join during an in-flight grid loses no request and stays
 *    byte-identical to a local engine run;
 *  - leaving a replica holder keeps every key answerable;
 *  - a double join is rejected with a structured already_member error;
 *  - epoch disagreement resolves to the higher epoch;
 *  - a live-joined node replicates over its multiplexed peer links.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/engine.hh"
#include "exp/job.hh"
#include "serve/client.hh"
#include "serve/ring.hh"
#include "sim/report.hh"
#include "serve/replica_cluster.hh"
#include "trace/spec2000.hh"

using namespace dcg;
using namespace dcg::serve;
using dcg::serve::testing::ReplicaCluster;

namespace {

constexpr std::uint64_t kInsts = 2000;
constexpr std::uint64_t kWarmup = 500;

std::vector<JobSpec>
gridSpecs()
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

std::vector<RunResult>
runLocally(const std::vector<JobSpec> &specs)
{
    exp::Engine engine(2);
    std::vector<exp::Job> jobs;
    for (const JobSpec &s : specs)
        jobs.push_back(s.toJob());
    return engine.run(jobs);
}

/**
 * gridSpecs(), widened with ddcg jobs on further benchmarks until at
 * least one key changes owner from @p oldRing to @p newRing and at
 * least one keeps it. The rings hash the ephemeral ports this run got,
 * so a fixed grid occasionally moves nothing.
 */
std::vector<JobSpec>
specsMovingSomeKeys(const HashRing &oldRing, const HashRing &newRing)
{
    std::vector<JobSpec> specs = gridSpecs();
    const auto moves = [&] {
        std::size_t n = 0;
        for (const JobSpec &s : specs) {
            const std::string key = exp::jobKey(s.toJob());
            n += oldRing.owner(key) != newRing.owner(key);
        }
        return n;
    };
    for (const std::string &bench : allSpecNames()) {
        const std::size_t n = moves();
        if (n > 0 && n < specs.size())
            break;
        JobSpec s = specs.front();
        s.bench = bench;
        s.scheme = "ddcg";
        specs.push_back(s);
    }
    return specs;
}

std::vector<RunResult>
runVia(const std::vector<Endpoint> &eps,
       const std::vector<JobSpec> &specs)
{
    ClusterClient client(eps);
    client.connect();
    return client.runJobs(specs);
}

} // namespace

TEST(Membership, JoinMovesOnlyRemappedArcs)
{
    ReplicaCluster cluster(2, 1, "join_arcs");
    cluster.start();
    // The joining node is bound (not yet a member) up front, so the
    // grid can be picked from the rings this run actually got.
    const std::size_t j = cluster.addStandaloneNode("join_arcs_new");

    // The ring predicts exactly which arcs a third member remaps.
    const HashRing oldRing(
        {cluster.address(0), cluster.address(1)});
    const HashRing newRing({cluster.address(0), cluster.address(1),
                            cluster.address(j)});
    const std::vector<JobSpec> specs =
        specsMovingSomeKeys(oldRing, newRing);

    const std::string viaOld =
        asJson(runVia({cluster.endpoint(0), cluster.endpoint(1)}, specs));
    const std::uint64_t simsBefore = cluster.sumStat("simulations");
    EXPECT_EQ(simsBefore, specs.size());

    std::uint64_t expectedMoves = 0;
    for (const JobSpec &s : specs) {
        const std::string key = exp::jobKey(s.toJob());
        if (oldRing.owner(key) != newRing.owner(key))
            ++expectedMoves;
    }
    // Sanity on the scenario itself: something moves, most keys stay.
    ASSERT_GT(expectedMoves, 0u);
    ASSERT_LT(expectedMoves, specs.size());

    const JsonValue joined =
        cluster.adminOp(0, "join", cluster.address(j));
    ASSERT_TRUE(joined.get("ok").asBool(false)) << joined.dump();
    EXPECT_EQ(joined.get("epoch").asU64(0), 1u);

    // Exactly the remapped arcs moved — a join must not reshuffle the
    // keys whose owner did not change.
    EXPECT_EQ(cluster.sumStat("rebalance_arcs_moved"), expectedMoves);
    EXPECT_GT(cluster.sumStat("rebalance_bytes"), 0u);

    // The grown cluster serves the same grid byte-identically with
    // zero re-simulations: every moved record was really handed off.
    std::vector<Endpoint> eps = cluster.boundEndpoints();
    const std::string viaNew = asJson(runVia(eps, specs));
    EXPECT_EQ(viaOld, viaNew);
    EXPECT_EQ(cluster.sumStat("simulations"), simsBefore);
}

TEST(Membership, JoinDuringInflightGrid)
{
    ReplicaCluster cluster(2, 1, "join_flight");
    cluster.start();
    const std::vector<JobSpec> specs = gridSpecs();
    const std::string local = asJson(runLocally(specs));

    // Fire the grid and the join concurrently. The client only knows
    // the ORIGINAL two nodes, so every request races the epoch change
    // through them: old owners must keep serving moved arcs
    // (dual-epoch routing) until the handoff lands, and the results
    // must stay byte-identical to a local run.
    const std::vector<Endpoint> oldEps = {cluster.endpoint(0),
                                          cluster.endpoint(1)};
    const std::size_t j = cluster.addStandaloneNode("join_flight_new");
    std::string viaCluster;
    std::thread grid([&] { viaCluster = asJson(runVia(oldEps, specs)); });
    const JsonValue joined =
        cluster.adminOp(0, "join", cluster.address(j));
    grid.join();

    ASSERT_TRUE(joined.get("ok").asBool(false)) << joined.dump();
    EXPECT_EQ(viaCluster, local);
    const std::uint64_t simsAfter = cluster.sumStat("simulations");
    EXPECT_EQ(simsAfter, specs.size());

    // A rerun through the grown ring re-serves everything from the
    // stores: the join lost no work.
    const std::string rerun =
        asJson(runVia(cluster.boundEndpoints(), specs));
    EXPECT_EQ(rerun, local);
    EXPECT_EQ(cluster.sumStat("simulations"), simsAfter);
}

TEST(Membership, LeaveReplicaHolderKeepsEveryKeyAnswerable)
{
    ReplicaCluster cluster(3, 2, "leave_replica");
    cluster.start();
    const std::vector<JobSpec> specs = gridSpecs();

    const std::string before =
        asJson(runVia(cluster.boundEndpoints(), specs));
    cluster.flushReplication();
    const std::uint64_t simsBefore = cluster.sumStat("simulations");

    const JsonValue left =
        cluster.adminOp(0, "leave", cluster.address(2));
    ASSERT_TRUE(left.get("ok").asBool(false)) << left.dump();
    EXPECT_EQ(left.get("epoch").asU64(0), 1u);

    // Every key the leaver held (as primary or replica) must still be
    // served by the two survivors without re-simulating.
    const std::string after = asJson(
        runVia({cluster.endpoint(0), cluster.endpoint(1)}, specs));
    EXPECT_EQ(before, after);
    EXPECT_EQ(cluster.nodeStats(0).get("simulations").asU64(0) +
                  cluster.nodeStats(1).get("simulations").asU64(0) +
                  cluster.nodeStats(2).get("simulations").asU64(0),
              simsBefore);
}

TEST(Membership, DoubleJoinRejectedStructured)
{
    ReplicaCluster cluster(2, 1, "double_join");
    cluster.start();

    // A node already on the ring cannot join again.
    const JsonValue dup =
        cluster.adminOp(0, "join", cluster.address(1));
    EXPECT_FALSE(dup.get("ok").asBool(true));
    EXPECT_EQ(dup.get("error").asString(), "already_member");
    EXPECT_NE(dup.get("detail").asString().find(cluster.address(1)),
              std::string::npos);

    // Joining a node twice: the first succeeds, the second is the
    // same structured rejection.
    const std::size_t j = cluster.addStandaloneNode();
    const JsonValue first =
        cluster.adminOp(0, "join", cluster.address(j));
    ASSERT_TRUE(first.get("ok").asBool(false)) << first.dump();
    const JsonValue second =
        cluster.adminOp(1, "join", cluster.address(j));
    EXPECT_FALSE(second.get("ok").asBool(true));
    EXPECT_EQ(second.get("error").asString(), "already_member");
}

TEST(Membership, EpochMismatchResolvesToHigher)
{
    ReplicaCluster cluster(2, 1, "epoch_mismatch");
    cluster.start();
    const std::size_t j = cluster.addStandaloneNode();
    const JsonValue joined =
        cluster.adminOp(0, "join", cluster.address(j));
    ASSERT_TRUE(joined.get("ok").asBool(false)) << joined.dump();
    const std::uint64_t cur = joined.get("epoch").asU64(0);
    ASSERT_GE(cur, 1u);

    Connection conn;
    std::string err;
    JsonValue resp;
    ASSERT_TRUE(conn.open(cluster.endpoint(0), err)) << err;

    // Re-announcing the installed epoch is idempotent.
    std::vector<std::string> members;
    for (const JsonValue &m : joined.get("members").items())
        members.push_back(m.asString());
    ASSERT_EQ(members.size(), 3u);
    const JsonValue again = epochRequest(cur, members, 0, {}, 1);
    ASSERT_TRUE(conn.roundTrip(again, resp, err)) << err;
    EXPECT_TRUE(resp.get("ok").asBool(false)) << resp.dump();

    // A higher epoch announcement wins: the node installs it and the
    // ring surface reflects the new membership.
    const std::uint64_t higher = cur + 5;
    const JsonValue announce = epochRequest(
        higher, {cluster.address(0), cluster.address(1)}, cur,
        {cluster.address(0), cluster.address(1), cluster.address(j)},
        1);
    ASSERT_TRUE(conn.roundTrip(announce, resp, err)) << err;
    EXPECT_TRUE(resp.get("ok").asBool(false)) << resp.dump();
    EXPECT_EQ(resp.get("epoch").asU64(0), higher);

    const JsonValue ringResp = cluster.adminOp(0, "ring");
    ASSERT_TRUE(ringResp.get("ok").asBool(false)) << ringResp.dump();
    EXPECT_EQ(ringResp.get("epoch").asU64(0), higher);
    EXPECT_EQ(ringResp.get("members").items().size(), 2u);

    // And a now-stale announcement bounces with the installed epoch.
    const JsonValue lower = epochRequest(
        higher - 1, {cluster.address(0)}, 0, {}, 1);
    ASSERT_TRUE(conn.roundTrip(lower, resp, err)) << err;
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "stale_epoch");
    EXPECT_EQ(resp.get("epoch").asU64(0), higher);
    EXPECT_EQ(resp.get("members").items().size(), 2u);
}

TEST(Membership, JoinedNodeReplicatesOverItsPeerLinks)
{
    ReplicaCluster cluster(2, 2, "join_links");
    cluster.start();
    const std::size_t j = cluster.addStandaloneNode("join_links_new");
    const JsonValue joined =
        cluster.adminOp(0, "join", cluster.address(j));
    ASSERT_TRUE(joined.get("ok").asBool(false)) << joined.dump();

    // Fresh keys (a seed nothing has run), widened until the joiner is
    // the primary of some: it simulates those and fans them out.
    const HashRing grown({cluster.address(0), cluster.address(1),
                          cluster.address(j)});
    std::vector<JobSpec> specs = gridSpecs();
    for (JobSpec &s : specs)
        s.seed = 7;
    const auto joinerOwns = [&] {
        for (const JobSpec &s : specs)
            if (grown.owner(exp::jobKey(s.toJob())) == cluster.address(j))
                return true;
        return false;
    };
    for (const std::string &bench : allSpecNames()) {
        if (joinerOwns())
            break;
        JobSpec s = specs.front();
        s.bench = bench;
        s.scheme = "ddcg";
        specs.push_back(s);
    }
    ASSERT_TRUE(joinerOwns());

    EXPECT_EQ(asJson(runVia(cluster.boundEndpoints(), specs)),
              asJson(runLocally(specs)));
    cluster.flushReplication();

    // Every replica the joiner wrote went over its pooled links: one
    // peer request per push at least (fetches count too).
    const JsonValue st = cluster.nodeStats(j);
    const std::uint64_t written = st.get("replicas_written").asU64(0);
    EXPECT_GT(written, 0u) << st.dump();
    EXPECT_GE(st.get("peer_requests").asU64(0), written) << st.dump();
}
