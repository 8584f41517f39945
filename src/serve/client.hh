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
 *    once across all nodes. Busy nodes are retried on their hint. A
 *    job whose node is dead or draining is resubmitted to the next
 *    node in its key's ring order (a submit is answered once, with
 *    its result, so there is nothing to resume). That node walks the
 *    key's holders and repairs a lost record exactly as it would for
 *    any other submit: failover and replica repair are the servers'
 *    job, and the client keeps no per-key state. CLI semantics: an
 *    error after every node has been tried is fatal().
 *
 * runJobs() returns exactly what a local Engine::run() would have —
 * bit-identical, since RunResult doubles travel as max_digits10
 * tokens and are re-parsed by the same reader — regardless of how
 * many nodes the grid was scattered across, how deep the submit
 * pipeline ran, or how many failovers it took to collect them.
 */

#ifndef DCG_SERVE_CLIENT_HH
#define DCG_SERVE_CLIENT_HH

#include <atomic>
#include <cstdint>
#include <memory>
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
     * @p timeoutMs is the per-request deadline on the links (0 =
     * none).
     */
    explicit ClusterClient(std::vector<Endpoint> endpoints,
                           unsigned timeoutMs = 0);
    ~ClusterClient();

    /**
     * Eagerly establish every link. With several endpoints an
     * unreachable node is a warning (its jobs fail over); fatal()
     * when no endpoint is reachable.
     */
    void connect();

    /**
     * One exchange with the first endpoint; fatal() on a transport
     * error. Protocol-level errors come back as the parsed
     * {"ok":false,...} response, not judged.
     */
    JsonValue roundTrip(const JsonValue &req);

    /** The server stats surface. With several endpoints, counters
     *  are summed across the nodes that answer; identity fields
     *  (protocol_version, epoch, cluster_nodes, replication_factor)
     *  and latency_max_us take the maximum; the per-node objects sit
     *  under "nodes", an unreachable node as {"error": ...} and
     *  counted in "nodes_unreachable". fatal() when no node answers. */
    JsonValue stats();

    /**
     * Pipelined grid fan-out: every job is one submit+wait frame on
     * its owner's link, up to a window in flight at once. Failover
     * and busy retries run per job from the link thread's
     * completions; results return in request order, bit-identical to
     * a sequential run.
     */
    std::vector<RunResult> runJobs(const std::vector<JobSpec> &specs);

    /** Jobs resubmitted to the next node after a node failed them. */
    std::uint64_t failovers() const { return failoverCount.load(); }

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

    std::vector<Endpoint> eps;
    HashRing ring;
    unsigned timeoutMs;
    std::unique_ptr<LinkLoop> links;  ///< lazily started

    /** Bumped from the link thread's completions, read by callers. */
    std::atomic<std::uint64_t> failoverCount{0};
};

} // namespace dcg::serve

#endif // DCG_SERVE_CLIENT_HH
