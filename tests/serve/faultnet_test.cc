/**
 * Tests for the faultnet FaultProxy itself — the fault-injection
 * harness must be trustworthy before the replication and failover
 * suites lean on it. One real dcgserved node sits behind a proxy and
 * each fault mode is checked for its contract: transparent when
 * passing, failing *fast* or failing *within the timeout bound* when
 * faulting, and never taking the test process down.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "exp/engine.hh"
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

JobSpec
tinySpec(const char *bench = "gzip")
{
    JobSpec s;
    s.bench = bench;
    s.insts = kInsts;
    s.warmup = kWarmup;
    return s;
}

JsonValue
statsReq()
{
    JsonValue req = JsonValue::object();
    req.set("op", JsonValue::string("stats"));
    return req;
}

/** One plain node with a FaultProxy in front of it. */
class ProxiedNode
{
  public:
    ProxiedNode() : cluster(1, 1, "")
    {
        cluster.start();
        proxy = std::make_unique<FaultProxy>(cluster.endpoint(0));
    }

    FaultProxy &fault() { return *proxy; }
    Endpoint front() const { return proxy->address(); }

  private:
    ReplicaCluster cluster;
    std::unique_ptr<FaultProxy> proxy;
};

} // namespace

TEST(Faultnet, PassModeIsTransparent)
{
    ProxiedNode node;

    exp::Engine local(1);
    std::ostringstream expected;
    writeResultsJson(local.run({tinySpec().toJob()}), expected);

    ClusterClient client({node.front()});
    std::ostringstream got;
    writeResultsJson(client.runJobs({tinySpec()}), got);
    EXPECT_EQ(got.str(), expected.str());
    EXPECT_GE(node.fault().connectionsSeen(), 1u);
}

TEST(Faultnet, CloseOnAcceptFailsTheExchangeFast)
{
    ProxiedNode node;
    node.fault().setMode(FaultProxy::Mode::CloseOnAccept);

    const auto begin = std::chrono::steady_clock::now();
    Connection conn;
    std::string err;
    JsonValue resp;
    // The TCP connect itself may complete (backlog), so the failure
    // is allowed to surface at either step — but it must surface.
    bool ok = conn.open(node.front(), err);
    if (ok)
        ok = conn.roundTrip(statsReq(), resp, err);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(err.empty());
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(Faultnet, BlackholeFailsWithinTheConfiguredTimeout)
{
    ProxiedNode node;
    node.fault().setMode(FaultProxy::Mode::Blackhole);

    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(node.front(), err, 300)) << err;

    const auto begin = std::chrono::steady_clock::now();
    JsonValue resp;
    EXPECT_FALSE(conn.roundTrip(statsReq(), resp, err));
    EXPECT_FALSE(err.empty());
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    // Bounded by the 300ms socket timeout, with generous slack for a
    // loaded machine — the point is "seconds, not forever".
    EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(Faultnet, GarbageResponseIsAParseErrorNotACrash)
{
    ProxiedNode node;
    node.fault().setMode(FaultProxy::Mode::Garbage);

    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(node.front(), err)) << err;
    JsonValue resp;
    EXPECT_FALSE(conn.roundTrip(statsReq(), resp, err));
    EXPECT_FALSE(err.empty());
}

TEST(Faultnet, CloseAfterBytesTruncatesTheResponse)
{
    ProxiedNode node;
    // Any stats response is far longer than 10 bytes, so the cut
    // lands mid-response: the client sees a dead connection, not a
    // short-but-parseable line.
    node.fault().setCloseAfterBytes(10);

    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(node.front(), err)) << err;
    JsonValue resp;
    EXPECT_FALSE(conn.roundTrip(statsReq(), resp, err));
}

TEST(Faultnet, DelayModeStillDeliversIntactResponses)
{
    ProxiedNode node;
    node.fault().setMode(FaultProxy::Mode::Delay);
    node.fault().setDelayMs(100);

    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(node.front(), err)) << err;
    const auto begin = std::chrono::steady_clock::now();
    JsonValue resp;
    ASSERT_TRUE(conn.roundTrip(statsReq(), resp, err)) << err;
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    EXPECT_TRUE(resp.get("ok").asBool(false));
    EXPECT_TRUE(resp.has("stats"));
    EXPECT_GE(elapsed, std::chrono::milliseconds(100));
}

TEST(Faultnet, LinkHealsWhenTheModeIsResetToPass)
{
    ProxiedNode node;
    node.fault().setMode(FaultProxy::Mode::CloseOnAccept);

    Connection conn;
    std::string err;
    JsonValue resp;
    bool ok = conn.open(node.front(), err);
    if (ok)
        ok = conn.roundTrip(statsReq(), resp, err);
    EXPECT_FALSE(ok);

    // Heal the link: the very next connection relays transparently.
    node.fault().setMode(FaultProxy::Mode::Pass);
    ASSERT_TRUE(conn.open(node.front(), err)) << err;
    ASSERT_TRUE(conn.roundTrip(statsReq(), resp, err)) << err;
    EXPECT_TRUE(resp.get("ok").asBool(false));
}

TEST(Faultnet, SeverActiveCutsAnEstablishedConnection)
{
    ProxiedNode node;
    Connection conn;
    std::string err;
    ASSERT_TRUE(conn.open(node.front(), err)) << err;
    JsonValue resp;
    ASSERT_TRUE(conn.roundTrip(statsReq(), resp, err)) << err;

    node.fault().severActive();
    // The relay threads poll at 50ms granularity; give the cut a
    // moment to land before the next exchange observes it.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_FALSE(conn.roundTrip(statsReq(), resp, err));
}
