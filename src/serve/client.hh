/**
 * @file
 * Client stack for the dcgserved protocol — the engine room behind
 * `dcgsim --server HOST:PORT[,HOST:PORT...]`.
 *
 * Two layers:
 *
 *  - Connection: one blocking TCP connection speaking the
 *    newline-JSON protocol. Every failure is reported (bool + error
 *    string), never fatal. An optional timeout bounds connect() and
 *    every recv/send, so a partitioned (blackholed, not merely dead)
 *    peer fails the exchange instead of hanging it. Tools and tests
 *    use it for one-off exchanges; the client proper never opens one
 *    per exchange.
 *
 *  - ClusterClient: the client API over a consistent-hash ring of
 *    endpoints (one endpoint is a ring of one), with all traffic
 *    multiplexed over one persistent PeerLink per node (driven by a
 *    LinkLoop thread). Every frame carries a request id, so many
 *    exchanges share a link concurrently, and runJobs() *pipelines*
 *    the grid — each job is a single submit+wait frame to the node
 *    the ring designates, with up to a window of jobs in flight at
 *    once across all nodes. Busy nodes are retried on their hint;
 *    dead or draining nodes fail the affected jobs over along each
 *    key's ring-successor candidates (resubmitting the same job
 *    elsewhere — a submit is answered once, with its result, so
 *    there is nothing to resume), so a grid survives any single-node
 *    loss as long as a replica can answer. When a failover candidate serves a
 *    result the primary has lost, the record is pushed back to the
 *    primary (`replicate` op): client-driven read-repair. CLI
 *    semantics: an error with no remaining candidate is fatal().
 *
 * runJobs() returns exactly what a local Engine::run() would have —
 * bit-identical, since RunResult doubles travel as max_digits10
 * tokens and are re-parsed by the same reader — regardless of how
 * many nodes the grid was scattered across, how deep the submit
 * pipeline ran, or how many failovers it took to collect them.
 */

#ifndef DCG_SERVE_CLIENT_HH
#define DCG_SERVE_CLIENT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"
#include "serve/endpoint.hh"
#include "serve/peerlink.hh"
#include "serve/protocol.hh"
#include "serve/ring.hh"

namespace dcg::serve {

/**
 * One blocking TCP connection; newline-delimited JSON request in,
 * one parsed response out. Non-fatal by design (see file comment).
 */
class Connection
{
  public:
    Connection() = default;
    ~Connection();

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /**
     * Connect to @p ep (closing any previous socket first).
     * @p timeoutMs > 0 bounds the connect itself and every later
     * send/recv on the socket; 0 never times out.
     */
    bool open(const Endpoint &ep, std::string &err,
              unsigned timeoutMs = 0);
    bool isOpen() const { return fd >= 0; }
    void shut();

    /** The "host:port" this connection targets (set by open()). */
    const std::string &peerName() const { return peer; }

    /**
     * Send one request line, receive one response line, parse it.
     * On any failure (including a timeout) the connection is closed
     * and false is returned with @p err describing the failure.
     */
    bool roundTrip(const JsonValue &req, JsonValue &resp,
                   std::string &err);

  private:
    bool sendAll(const std::string &line, std::string &err);
    bool recvLine(std::string &line, std::string &err);

    int fd = -1;
    std::string peer;
    std::string inBuf;
};

/**
 * The dcgserved client: a consistent-hash ring of server endpoints,
 * multiplexing all traffic over one persistent link per node (see the
 * file comment; CLI semantics: unrecoverable errors are fatal()).
 */
class ClusterClient
{
  public:
    /**
     * fatal() on an empty endpoint list. Connects lazily.
     * @p replicas > 1 enables failover along each key's ring
     * successors (match the servers' --replicas); @p timeoutMs is the
     * per-request deadline on the links (0 = none).
     */
    explicit ClusterClient(std::vector<Endpoint> endpoints,
                           unsigned replicas = 1,
                           unsigned timeoutMs = 0);
    ~ClusterClient();

    /** Eagerly establish every link; fatal() on failure. */
    void connect();

    /**
     * One exchange with the node currently routed for @p routeKey (a
     * jobKey(); "" = the first endpoint), failing over along the
     * key's candidates on transport errors; fatal() when no candidate
     * is reachable. Protocol-level errors come back as the parsed
     * {"ok":false,...} response, not judged.
     */
    JsonValue roundTrip(const JsonValue &req,
                        const std::string &routeKey = "");

    /** The server stats surface. With several endpoints, counters
     *  are summed across nodes; identity fields (protocol_version,
     *  epoch, cluster_nodes, replication_factor) and latency_max_us
     *  take the maximum; the per-node objects sit under "nodes". */
    JsonValue stats();

    /**
     * Pipelined grid fan-out: every job is one submit+wait frame on
     * its owner's link, up to a window in flight at once. Failover,
     * busy retries and read-repair run per job from the link thread's
     * completions; results return in request order, bit-identical to
     * a sequential run.
     */
    std::vector<RunResult> runJobs(const std::vector<JobSpec> &specs);

    /** Failovers performed while routing requests. */
    std::uint64_t failovers() const;

    /** Read-repair pushes that reached the primary. */
    std::uint64_t readRepairs() const;

    const HashRing &ringView() const { return ring; }

    /// @name Typed admin surface (membership verbs)
    ///
    /// Admin verbs address one specific node — the first endpoint
    /// this client was built with (the coordinator of the change) —
    /// never ring-routed. Transport failures are fatal() (CLI
    /// semantics); protocol-level rejections (already_member,
    /// change_in_progress, ...) come back as the parsed
    /// {"ok":false,...} response for the caller to judge.
    /// @{

    /** Send admin @p verb with the fields of @p args on the envelope. */
    JsonValue admin(const std::string &verb,
                    const JsonValue &args = JsonValue::object());

    /** Ask the coordinator to add @p node ("host:port") to the ring. */
    JsonValue join(const std::string &node);

    /** Ask the coordinator to remove @p node from the ring. */
    JsonValue leave(const std::string &node);

    /** The coordinator's epoch, members and rebalance counters. */
    JsonValue ringInfo();
    /// @}

  private:
    /** The link pool, starting its LinkLoop on first use. */
    PeerPool &pool();

    /** Node index currently routed for @p key (candidate chain). */
    std::size_t nodeFor(const std::string &key) const;

    /**
     * Advance @p routeKey to its next replica candidate after a
     * failure. False means there is nowhere to fail over to.
     */
    bool advanceRoute(const std::string &routeKey);

    /** The key's current position in its candidate chain (0 =
     *  primary). */
    std::size_t routePosOf(const std::string &key) const;

    std::vector<Endpoint> eps;
    HashRing ring;
    unsigned replicas;
    unsigned timeoutMs;
    std::unique_ptr<LinkLoop> links;  ///< lazily started

    /**
     * Guards routePos and the counters: the pipelined runJobs()
     * mutates them from the link thread's completions while the
     * calling thread reads them.
     */
    mutable std::mutex routeMutex;
    /** Failover state: key -> position in its candidate chain. */
    std::map<std::string, std::size_t> routePos;
    std::uint64_t failoverCount = 0;
    std::uint64_t readRepairCount = 0;
};

} // namespace dcg::serve

#endif // DCG_SERVE_CLIENT_HH
