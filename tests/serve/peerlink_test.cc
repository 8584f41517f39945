/**
 * Multiplexed peer-link tests: the PeerPool/LinkLoop layer
 * under fault injection. Jobs of deliberately different lengths prove
 * rid matching (out-of-order completions must still assemble into a
 * byte-identical in-order grid); a FaultProxy in front of the node
 * proves one persistent connection carries the whole pipelined grid,
 * and that Garbage / mid-frame byte-budget cuts kill the link cleanly
 * — in-flight requests fail over, the link reconnects, and no
 * response is ever delivered against the wrong request. A scripted
 * peer that answers without rids pins the protocol-violation path:
 * the link dies, nothing hangs, and the grid fails over.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/engine.hh"
#include "exp/job.hh"
#include "serve/client.hh"
#include "serve/faultnet.hh"
#include "serve/peerlink.hh"
#include "serve/protocol.hh"
#include "serve/replica_cluster.hh"
#include "sim/report.hh"

using namespace dcg;
using namespace dcg::serve;
using namespace dcg::serve::testing;

namespace {

/**
 * Jobs of deliberately different lengths: on a node with two workers
 * the completions come back out of submit order, so a byte-identical
 * in-order grid is only possible if responses are matched by rid.
 */
std::vector<JobSpec>
variedSpecs()
{
    const std::uint64_t lens[] = {4000, 800,  2600, 1200, 3400, 600,
                                  2000, 1600, 3000, 1000, 2800, 1400};
    std::vector<JobSpec> specs;
    std::size_t i = 0;
    for (const char *bench : {"gzip", "mcf", "twolf"}) {
        for (const char *scheme : {"base", "dcg"}) {
            for (unsigned rep = 0; rep < 2; ++rep) {
                JobSpec s;
                s.bench = bench;
                s.scheme = scheme;
                s.insts = lens[i++ % 12];
                s.warmup = 200;
                s.seed = 1 + rep;
                specs.push_back(s);
            }
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
localJson(const std::vector<JobSpec> &specs)
{
    exp::Engine local(2);
    std::vector<exp::Job> jobs;
    for (const JobSpec &s : specs)
        jobs.push_back(s.toJob());
    return asJson(local.run(jobs));
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

/** Threads in this process right now. */
std::size_t
threadCount()
{
    std::size_t n = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)entry;
        ++n;
    }
    return n;
}

/**
 * A scripted peer that answers every request line with a well-formed
 * but rid-less {"ok":true,...} response — a protocol violation no
 * node of this tree commits, so the pool must treat it as a broken
 * link. Connections are served one at a time until the client closes.
 */
class RidlessPeer
{
  public:
    RidlessPeer()
    {
        listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd < 0)
            fatal("RidlessPeer: socket: ", std::strerror(errno));
        const int one = 1;
        ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0;
        if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listenFd, 8) != 0)
            fatal("RidlessPeer: bind/listen: ", std::strerror(errno));
        socklen_t len = sizeof(addr);
        if (::getsockname(listenFd,
                          reinterpret_cast<sockaddr *>(&addr),
                          &len) != 0)
            fatal("RidlessPeer: getsockname: ", std::strerror(errno));
        port = ntohs(addr.sin_port);
        acceptor = std::thread([this] { serveLoop(); });
    }

    ~RidlessPeer()
    {
        stopping.store(true);
        ::shutdown(listenFd, SHUT_RDWR);
        ::close(listenFd);
        if (acceptor.joinable())
            acceptor.join();
    }

    Endpoint address() const { return Endpoint{"127.0.0.1", port}; }

    /** Request lines answered (rid-less). */
    std::size_t answered() const { return served.load(); }

  private:
    void serveLoop()
    {
        while (!stopping.load()) {
            const int c = ::accept(listenFd, nullptr, nullptr);
            if (c < 0) {
                if (stopping.load())
                    return;
                continue;
            }
            while (answerLine(c)) {
            }
            ::close(c);
        }
    }

    /** Read one request line and answer it; false on EOF/error. */
    bool answerLine(int c)
    {
        std::string line;
        char ch = 0;
        while (::read(c, &ch, 1) == 1 && ch != '\n')
            line += ch;
        if (ch != '\n')
            return false;
        JsonValue resp = okResponse();
        resp.set("stats", JsonValue::object());
        stampVersion(resp, kProtocolVersion);
        ++served;

        const std::string out = resp.dump() + "\n";
        std::size_t off = 0;
        while (off < out.size()) {
            const ssize_t w = ::send(c, out.data() + off,
                                     out.size() - off, MSG_NOSIGNAL);
            if (w <= 0)
                return false;
            off += static_cast<std::size_t>(w);
        }
        return true;
    }

    int listenFd = -1;
    std::uint16_t port = 0;
    std::atomic<bool> stopping{false};
    std::atomic<std::size_t> served{0};
    std::thread acceptor;
};

} // namespace

TEST(PeerLink, MuxedGridIsByteIdenticalDespiteOutOfOrderCompletions)
{
    const std::vector<JobSpec> specs = variedSpecs();
    const std::string expected = localJson(specs);

    ReplicaCluster fx(1, 1, "");
    fx.start();

    // Twelve jobs of wildly different lengths pipelined onto one
    // two-worker node: short jobs finish while long ones run, so the
    // responses arrive out of submit order and only rid matching can
    // put the grid back together in request order.
    std::vector<Endpoint> eps{fx.endpoint(0)};
    ClusterClient client(eps);
    EXPECT_EQ(asJson(client.runJobs(specs)), expected);
}

TEST(PeerLink, OnePersistentConnectionCarriesTheWholeGrid)
{
    const std::vector<JobSpec> specs = variedSpecs();
    const std::string expected = localJson(specs);

    ProxiedNode node;
    std::vector<Endpoint> eps{node.front()};
    ClusterClient client(eps);
    EXPECT_EQ(asJson(client.runJobs(specs)), expected);

    // The whole pipelined grid — every submit and every deferred
    // result — rode a single TCP connection. The pre-mux client paid
    // at least one connection per node per grid; the budget here is
    // exactly one, period.
    EXPECT_EQ(node.fault().connectionsSeen(), 1u);
}

TEST(PeerLink, DelayedLinkStillDeliversIntactResponses)
{
    std::vector<JobSpec> specs = variedSpecs();
    specs.resize(6);
    const std::string expected = localJson(specs);

    ProxiedNode node;
    node.fault().setMode(FaultProxy::Mode::Delay);
    node.fault().setDelayMs(100);

    std::vector<Endpoint> eps{node.front()};
    ClusterClient client(eps, /*timeoutMs=*/10000);
    const auto begin = std::chrono::steady_clock::now();
    EXPECT_EQ(asJson(client.runJobs(specs)), expected);
    const auto elapsed = std::chrono::steady_clock::now() - begin;

    // The delay really sat on the link at least once, and slowness
    // alone never cost the persistent connection.
    EXPECT_GE(elapsed, std::chrono::milliseconds(100));
    EXPECT_EQ(node.fault().connectionsSeen(), 1u);
}

TEST(PeerLink, GarbageResponseFailsTheGridOverCleanly)
{
    const std::vector<JobSpec> specs = variedSpecs();
    const std::string expected = localJson(specs);

    // Ring identity = proxy addresses: faultnet sits on every link.
    ReplicaCluster fx(2, 2, "muxgarbage", /*peerTimeoutMs=*/1000);
    FaultProxy p0(fx.endpoint(0));
    FaultProxy p1(fx.endpoint(1));
    fx.start({p0.address(), p1.address()});

    std::vector<Endpoint> eps{p0.address(), p1.address()};
    {
        ClusterClient warm(eps);
        EXPECT_EQ(asJson(warm.runJobs(specs)), expected);
    }
    fx.flushReplication();
    // The replica fan-out rode the multiplexed peer links.
    EXPECT_GT(fx.sumStat("peer_requests"), 0u);

    const HashRing ring = fx.node(0).ringView();
    const std::size_t dark =
        ring.ownerIndex(exp::jobKey(specs[0].toJob()));
    const std::size_t lit = dark == 0 ? 1 : 0;
    const std::uint64_t litSimsBefore =
        fx.nodeStats(lit).get("simulations").asU64(0);

    // Every new connection to the dark node now answers one line of
    // garbage and closes: its multiplexed link dies on the first
    // response, every pipelined in-flight request on it fails over.
    (dark == 0 ? p0 : p1).setMode(FaultProxy::Mode::Garbage);

    ClusterClient client(eps, /*timeoutMs=*/2000);
    EXPECT_EQ(asJson(client.runJobs(specs)), expected);
    EXPECT_GT(client.failovers(), 0u);

    // Clean failover means replica records answered everything: the
    // lit node never re-simulated a single job.
    EXPECT_EQ(fx.nodeStats(lit).get("simulations").asU64(99),
              litSimsBefore);
}

TEST(PeerLink, MidFrameLinkDeathFailsOverAndHeals)
{
    const std::vector<JobSpec> specs = variedSpecs();
    const std::string expected = localJson(specs);

    ReplicaCluster fx(2, 2, "muxcut", /*peerTimeoutMs=*/1000);
    FaultProxy p0(fx.endpoint(0));
    FaultProxy p1(fx.endpoint(1));
    fx.start({p0.address(), p1.address()});

    std::vector<Endpoint> eps{p0.address(), p1.address()};
    {
        ClusterClient warm(eps);
        EXPECT_EQ(asJson(warm.runJobs(specs)), expected);
    }
    fx.flushReplication();

    const HashRing ring = fx.node(0).ringView();
    const std::size_t dark =
        ring.ownerIndex(exp::jobKey(specs[0].toJob()));
    FaultProxy &darkProxy = dark == 0 ? p0 : p1;

    // Cut every future connection to the dark node 40 bytes into the
    // response stream — mid-frame, since any result line is far
    // longer. The link dies with a partial frame buffered; nothing
    // may leak across rids and every in-flight request fails over.
    darkProxy.setCloseAfterBytes(40);

    ClusterClient client(eps, /*timeoutMs=*/2000);
    EXPECT_EQ(asJson(client.runJobs(specs)), expected);
    EXPECT_GT(client.failovers(), 0u);

    // Heal the link: a fresh client routes primaries again and the
    // reconnected link serves the dark node's own records.
    darkProxy.setCloseAfterBytes(0);
    ClusterClient healed(eps, /*timeoutMs=*/2000);
    EXPECT_EQ(asJson(healed.runJobs(specs)), expected);
}

TEST(PeerLink, PoolCountsLinkDeathsAndReconnects)
{
    ProxiedNode node;
    LinkLoop loop({node.front()}, /*peerTimeoutMs=*/2000);
    loop.start();
    PeerPool &pool = loop.pool();

    // Healthy exchange first: the link comes up.
    JsonValue resp;
    std::string err;
    ASSERT_TRUE(pool.callSync(0, statsReq(), resp, err)) << err;
    EXPECT_TRUE(resp.get("ok").asBool(false));

    // Cut the live connection and poison the next one mid-frame.
    node.fault().setCloseAfterBytes(10);
    node.fault().severActive();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_FALSE(pool.callSync(0, statsReq(), resp, err));
    EXPECT_FALSE(err.empty());

    // Heal: the pool reconnects on its own and serves again.
    node.fault().setCloseAfterBytes(0);
    ASSERT_TRUE(pool.callSync(0, statsReq(), resp, err)) << err;
    EXPECT_TRUE(resp.get("ok").asBool(false));

    EXPECT_GE(pool.linkDeaths(), 1u);
    EXPECT_GE(pool.reconnects(), 1u);
    loop.stop();
}

TEST(PeerLink, RidlessResponseFailsTheRequestOverCleanly)
{
    RidlessPeer peer;
    {
        // No per-request deadline: only the link-death path can end
        // this exchange, so a hang here is a hang in the pool.
        LinkLoop loop({peer.address()}, /*peerTimeoutMs=*/0);
        loop.start();
        const std::size_t threadsBefore = threadCount();

        JsonValue resp;
        std::string err;
        EXPECT_FALSE(loop.pool().callSync(0, statsReq(), resp, err));
        EXPECT_NE(err.find("without a rid"), std::string::npos) << err;
        EXPECT_GE(peer.answered(), 1u);
        EXPECT_GE(loop.pool().linkDeaths(), 1u);
        // The failure came from the link itself, not from a second
        // transport spun up behind it.
        EXPECT_EQ(threadCount(), threadsBefore);
        loop.stop();
    }

    // Inside a grid: every key the ring gives the rid-less peer fails
    // over to its replica candidate, a healthy standalone node, and
    // the grid stays byte-identical to a local run.
    const std::vector<JobSpec> specs = variedSpecs();
    const std::string expected = localJson(specs);
    ReplicaCluster fx(1, 1, "");
    fx.start();
    std::vector<Endpoint> eps{peer.address(), fx.endpoint(0)};
    ClusterClient client(eps);
    std::size_t peerOwned = 0;
    for (const JobSpec &s : specs)
        peerOwned += client.ringView().ownerIndex(
                         exp::jobKey(s.toJob())) == 0;
    ASSERT_GT(peerOwned, 0u) << "no key hashes to the rid-less peer";

    EXPECT_EQ(asJson(client.runJobs(specs)), expected);
    EXPECT_GE(client.failovers(), peerOwned);
}
