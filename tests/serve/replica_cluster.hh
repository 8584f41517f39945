/**
 * @file
 * ReplicaCluster: the shared in-process cluster fixture for the
 * replication and failover suites.
 *
 * Extends the pattern of cluster_test.cc's fixture with the three
 * capabilities fault-injection tests need:
 *
 *  - replication, drain and worker knobs (replicas / peerTimeoutMs /
 *    drainGraceMs / workers) on every node;
 *  - a two-phase start, so the canonical ring can be built on
 *    addresses *other* than the bind addresses — in practice the
 *    faultnet proxy addresses, which puts a FaultProxy on every
 *    client-to-node and node-to-node link;
 *  - node lifecycle: killNode() stops one node (its port stays
 *    reserved in the fixture), restartNode() brings it back on the
 *    SAME port (optionally with a wiped store) so the rest of the
 *    cluster — whose ring still names that address — reconnects to
 *    the reincarnation transparently.
 *
 * Test-support code: lives in tests/, never linked into the tools.
 */

#ifndef DCG_TESTS_SERVE_REPLICA_CLUSTER_HH
#define DCG_TESTS_SERVE_REPLICA_CLUSTER_HH

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/log.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace dcg::serve::testing {

inline std::string
freshStoreDir(const std::string &tag)
{
    namespace fs = std::filesystem;
    const fs::path p = fs::temp_directory_path() /
        ("dcg_replica_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(p);
    return p.string();
}

class ReplicaCluster
{
  public:
    /**
     * Bind @p n nodes on ephemeral ports (no event loops yet).
     * Empty @p storeTag = no persistent stores (only valid with
     * replicas == 1; the server refuses to replicate storeless).
     */
    ReplicaCluster(std::size_t n, unsigned replicas,
                   const std::string &storeTag,
                   unsigned peerTimeoutMs = 0,
                   unsigned drainGraceMs = ServerConfig{}.drainGraceMs,
                   unsigned workers = 2)
        : replicaCount(replicas), peerTimeout(peerTimeoutMs),
          drainGrace(drainGraceMs), workerCount(workers)
    {
        for (std::size_t i = 0; i < n; ++i) {
            ServerConfig cfg = baseConfig(i, storeTag);
            servers.push_back(std::make_unique<Server>(cfg));
            ports.push_back(servers.back()->port());
            threads.emplace_back();  // filled by start()
        }
    }

    ~ReplicaCluster()
    {
        for (std::size_t i = 0; i < servers.size(); ++i)
            if (servers[i])
                killNode(i);
        namespace fs = std::filesystem;
        for (const std::string &d : storeDirs)
            if (!d.empty())
                fs::remove_all(d);
    }

    /** Configure the ring on the bound addresses and start all. */
    void start() { start(boundEndpoints()); }

    /**
     * Configure the ring on @p ringAddrs (index-aligned with the
     * nodes; typically faultnet proxy addresses) and start all.
     */
    void start(const std::vector<Endpoint> &ringAddrs)
    {
        ring = ringAddrs;
        for (std::size_t i = 0; i < servers.size(); ++i)
            launch(i);
    }

    /** The address every node actually listens on. */
    std::vector<Endpoint> boundEndpoints() const
    {
        std::vector<Endpoint> eps;
        for (std::uint16_t p : ports)
            eps.push_back(Endpoint{"127.0.0.1", p});
        return eps;
    }

    /** Node @p i's canonical ring identity (proxy-aware). */
    Endpoint ringEndpoint(std::size_t i) const { return ring[i]; }
    std::string address(std::size_t i) const
    {
        return "127.0.0.1:" + std::to_string(ports[i]);
    }
    Endpoint endpoint(std::size_t i) const
    {
        return Endpoint{"127.0.0.1", ports[i]};
    }

    Server &node(std::size_t i) { return *servers[i]; }
    bool alive(std::size_t i) const { return servers[i] != nullptr; }
    std::size_t size() const { return servers.size(); }
    const std::string &storeDir(std::size_t i) const
    {
        return storeDirs[i];
    }

    /** Drain every node's pending replica fan-out pushes. */
    void flushReplication()
    {
        for (const auto &s : servers)
            if (s && s->replication())
                s->replication()->flush();
    }

    /**
     * Take node @p i down: stop its event loop and destroy the
     * Server. Its port and store directory survive for a restart;
     * peers connecting to the address now fail fast.
     */
    void killNode(std::size_t i)
    {
        servers[i]->requestStop();
        if (threads[i].joinable())
            threads[i].join();
        servers[i].reset();
    }

    /**
     * Bring node @p i back on its original port — and, with
     * @p wipeStore, as a cold process with an empty disk, the
     * "replaced machine" a replicated cluster must absorb.
     */
    void restartNode(std::size_t i, bool wipeStore = false)
    {
        namespace fs = std::filesystem;
        if (wipeStore && !storeDirs[i].empty())
            fs::remove_all(storeDirs[i]);
        ServerConfig cfg = baseConfig(i, "");
        cfg.storeDir = storeDirs[i];
        cfg.port = ports[i];  // SO_REUSEADDR makes the rebind stick
        servers[i] = std::make_unique<Server>(cfg);
        launch(i);
    }

    /**
     * Bind and start one NEW standalone node — its own epoch-0 ring
     * of itself, the kind of process a live `join` turns into a
     * member. Returns its index. Empty @p storeTag = no store.
     */
    std::size_t addStandaloneNode(const std::string &storeTag = "")
    {
        const std::size_t i = servers.size();
        ServerConfig cfg = baseConfig(i, storeTag);
        servers.push_back(std::make_unique<Server>(cfg));
        ports.push_back(servers.back()->port());
        ring.push_back(Endpoint{"127.0.0.1", ports.back()});
        threads.emplace_back([&srv = *servers.back()] { srv.run(); });
        return i;
    }

    /**
     * One raw admin exchange with node @p i on the current protocol
     * version; @p nodeArg rides as the "node" field when non-empty.
     * Returns the parsed response — rejections included, for tests
     * that assert on structured errors.
     */
    JsonValue adminOp(std::size_t i, const std::string &op,
                      const std::string &nodeArg = "")
    {
        Connection conn;
        std::string err;
        if (!conn.open(endpoint(i), err))
            fatal("adminOp: ", err);
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::string(op));
        if (!nodeArg.empty())
            req.set("node", JsonValue::string(nodeArg));
        stampVersion(req, kProtocolVersion);
        JsonValue resp;
        if (!conn.roundTrip(req, resp, err))
            fatal("adminOp: ", err);
        return resp;
    }

    /** One node's raw stats object (op:"stats" over the wire). */
    JsonValue nodeStats(std::size_t i)
    {
        Connection conn;
        std::string err;
        if (!conn.open(endpoint(i), err))
            fatal("nodeStats: ", err);
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::string("stats"));
        JsonValue resp;
        if (!conn.roundTrip(req, resp, err))
            fatal("nodeStats: ", err);
        return resp.get("stats");
    }

    /** Sum of a stats counter over every *live* node. */
    std::uint64_t sumStat(const std::string &name)
    {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < servers.size(); ++i)
            if (servers[i])
                total += nodeStats(i).get(name).asU64(0);
        return total;
    }

  private:
    ServerConfig baseConfig(std::size_t i, const std::string &storeTag)
    {
        ServerConfig cfg;
        cfg.host = "127.0.0.1";
        cfg.port = 0;
        cfg.workers = workerCount;
        cfg.replicas = replicaCount;
        cfg.peerTimeoutMs = peerTimeout;
        cfg.drainGraceMs = drainGrace;
        if (!storeTag.empty()) {
            if (storeDirs.size() <= i)
                storeDirs.resize(i + 1);
            storeDirs[i] =
                freshStoreDir(storeTag + std::to_string(i));
            cfg.storeDir = storeDirs[i];
        } else if (storeDirs.size() <= i) {
            storeDirs.resize(i + 1);
        }
        return cfg;
    }

    void launch(std::size_t i)
    {
        servers[i]->configureCluster(ring, ring[i].str());
        threads[i] = std::thread([&srv = *servers[i]] { srv.run(); });
    }

    unsigned replicaCount;
    unsigned peerTimeout;
    unsigned drainGrace;
    unsigned workerCount;
    std::vector<std::unique_ptr<Server>> servers;
    std::vector<std::thread> threads;
    std::vector<std::uint16_t> ports;
    std::vector<std::string> storeDirs;
    std::vector<Endpoint> ring;  ///< canonical identities, by node
};

} // namespace dcg::serve::testing

#endif // DCG_TESTS_SERVE_REPLICA_CLUSTER_HH
