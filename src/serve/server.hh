/**
 * @file
 * dcgserved's core: an asynchronous TCP simulation service over the
 * experiment Engine — one shard of a (possibly single-node) cluster.
 *
 * Architecture (one process, two kinds of threads):
 *
 *  - The I/O thread (run()) owns a poll()-based event loop: the
 *    non-blocking listen socket, every client connection, a
 *    self-wake pipe, and — in a cluster — the PeerPool's multiplexed
 *    peer links. It parses newline-delimited JSON requests, admits
 *    jobs to a *bounded* queue (over-capacity submits are rejected
 *    with a retry-after hint — backpressure, not buffering), answers
 *    stats and the admin and peer verbs without touching a worker,
 *    and drives every peer exchange asynchronously: a forwarded
 *    submit is a pipelined submit frame on the owner's link, its
 *    failover walk a continuation chain (Forward) stepped by link
 *    completions, never a blocked thread. A job served here is
 *    looked up in the local store on this thread, and on a miss its
 *    read-repair walk (ReplicatedStore::fetch) is another such chain;
 *    a store or replica hit is answered without a worker.
 *
 *  - N worker threads pop admitted jobs and ONLY simulate
 *    (Engine::runOne): a job reaches them only after the local store
 *    and every holder missed. Results flow back to the I/O thread as
 *    events through the wake pipe, which writes each submit's reply.
 *    A worker's store write posts its replica pushes on the pool
 *    without waiting for them; no worker ever waits on a peer.
 *
 * Requests: a submit is answered exactly once, when its job finishes
 * (a warm cache hit at once). Its reply target — connection id and
 * rid — travels with the job: in its WorkItem, its Forward chain and
 * its completion Event, and nowhere else. Writing the reply (or
 * dropping it, when the client has gone) releases the last of it, so
 * no per-request state outlives the reply; `requests_inflight` in
 * stats counts the submits still owed one.
 *
 * Envelope: every request is answered at the one protocol version
 * this build speaks (kProtocolVersion); a request without "version"
 * is served as that version, any other version gets the structured
 * unsupported_version error. Every response echoes the request's rid.
 *
 * Clustering: configureCluster() (or ServerConfig::peers/self) names
 * every node of the shared consistent-hash ring plus this node's own
 * canonical "host:port". A submit whose job key hashes to a peer is
 * transparently forwarded — unless the submit is itself a forward
 * (answered with not_owner + the owner's address, never
 * re-forwarded, so ring disagreement cannot loop). Forwarded results
 * are NOT persisted locally: every record lives on exactly the
 * shard(s) the ring designates. In-flight forwards count against
 * queueCapacity, so peer traffic is backpressured like local work
 * even though it holds no worker.
 *
 * Replication: with ServerConfig::replicas = k > 1 (and a persistent
 * store) every key lives on the k distinct ring successors
 * HashRing::owners() names. The node's store is wrapped in a
 * ReplicatedStore, so each locally computed result is written
 * locally first and then fanned out asynchronously to the other
 * holders ("replicate" op), and a local miss on a held key is
 * repaired by pulling a sibling's record ("fetch" op). The pushes and
 * the read-repair fetches ride the same multiplexed links as
 * forwards: the one PeerPool, built in the constructor (rebuilt by
 * configureCluster() before run()), which the ReplicatedStore calls
 * directly. Open walks, like in-flight forwards, count against
 * queueCapacity. Forwarding is failover-aware: when the key's primary
 * is unreachable the Forward chain walks the remaining holders in
 * ring order — serving the job here when this node is itself one of
 * them — before reporting forward_failed. A forwarded submit marked
 * "replica": true is such a failover: a holder receiving one serves
 * it instead of bouncing not_owner.
 *
 * Warm resubmissions never occupy a worker: admission first peeks the
 * engine's in-memory cache (Engine::tryCached) and completes such jobs
 * immediately. With a ResultStore attached, results additionally
 * survive restarts — a cold process serves a previously-seen grid
 * entirely from disk (stats report 0 simulations).
 * storeBudgetBytes/cacheBudgetBytes put LRU bounds on the persistent
 * store and the in-memory cache, and the store is compacted once at
 * startup and on {"op":"compact"}.
 *
 * Elastic membership: the cluster's member list is a
 * *versioned ring epoch* — a monotonically increasing epoch id plus
 * the member list it was agreed for (EpochView). The admin verbs
 * `join` and `leave` advance it at runtime: the node serving the verb
 * coordinates — a joiner is told the new epoch first (so it can serve
 * from its first forwarded request), then the coordinator installs it
 * locally and broadcasts `epoch` to every other member over the
 * multiplexed links. Each receiver installs any newer epoch, keeps
 * the previous one for dual-epoch routing (a forwarded submit is
 * served if this node holds the key under *either* epoch, so no
 * request ever misses mid-transition), pushes the remapped ~1/N of
 * its stored records to their new holders via the `replicate`
 * verb, and only acks the `epoch` once that push queue drains —
 * which makes a completed join/leave response mean "the whole
 * cluster has rebalanced". Gaps (a push raced an eviction, a node
 * was down) are healed lazily: the ReplicatedStore's read path also
 * asks the previous epoch's holders (handoff fetches). One membership
 * change runs at a time; a node on a newer epoch answers stale_epoch
 * with its view, and the lower side catches up.
 *
 * Dispatch: every protocol verb is registered in the op-handler
 * registry (serve/ops.hh) by registerServerOps(); handleLine() looks
 * verbs up there — there is no if/else verb chain — and the catalog
 * is echoed on every stats response.
 *
 * Shutdown: requestStop() (async-signal-safe; wired to SIGINT/SIGTERM
 * by dcgserved) stops accepting and admitting, drains queued and
 * running jobs, in-flight forwards, open read-repair walks and posted
 * replica pushes while the event loop still drives the peer links,
 * flushes responses, then returns from run(). A drain grace period
 * bounds the wait; past it the workers are told to stop and the pool
 * is shut down, so every peer exchange still outstanding — a
 * forward, a walk's fetch, a push — fails fast instead of holding
 * run() open, and a walk ended that way starts no simulation.
 */

#ifndef DCG_SERVE_SERVER_HH
#define DCG_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/thread_annotations.hh"
#include "exp/engine.hh"
#include "serve/endpoint.hh"
#include "serve/ops.hh"
#include "serve/peerlink.hh"
#include "serve/protocol.hh"
#include "serve/replication.hh"
#include "serve/ring.hh"
#include "serve/store.hh"

namespace dcg::serve {

/** Registers every built-in protocol verb with the op registry (see
 *  serve/ops.hh). Idempotent; called by the registry's first lookup
 *  and doubling as the static-archive anchor. Defined in server.cc —
 *  the handlers need private Server access. */
void registerServerOps();

struct ServerConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;        ///< 0 = ephemeral (see Server::port)
    unsigned workers = 0;          ///< 0 = Engine::defaultJobs()
    std::size_t queueCapacity = 256;
    std::string storeDir;          ///< empty = no persistent store
    unsigned retryAfterMs = 250;   ///< backpressure hint to clients
    unsigned drainGraceMs = 5000;  ///< max wait for undelivered output

    /// @name Clustering (empty peers = standalone single node)
    /// @{
    std::vector<Endpoint> peers;   ///< every ring node, self included
    std::string self;              ///< this node's canonical host:port
    unsigned replicas = 1;         ///< copies per key (1 = no replication)
    unsigned peerTimeoutMs = 0;    ///< bound on peer ops (0 = none)
    /// @}

    /// @name Lifecycle budgets (0 = unbounded)
    /// @{
    std::uint64_t storeBudgetBytes = 0;  ///< LRU bound on the store
    std::uint64_t cacheBudgetBytes = 0;  ///< LRU bound on the cache
    /// @}
};

class Server
{
  public:
    /**
     * Bind and listen (fatal() on failure); the actual port — useful
     * with port 0 — is available immediately via port(). No requests
     * are served until run().
     */
    explicit Server(const ServerConfig &config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Join a cluster after construction but before run() — the window
     * tests and multi-process launchers need when ports are ephemeral
     * and the full ring is only known once every node has bound.
     * Rebuilds the peer pool (and the replication layer) over the new
     * node table. @p allNodes must contain @p self (canonical
     * "host:port"); fatal() otherwise or on a malformed ring.
     */
    void configureCluster(const std::vector<Endpoint> &allNodes,
                          const std::string &self) DCG_OWNER_THREAD;

    /** Event loop; blocks until requestStop() and the drain finish. */
    void run() DCG_OWNER_THREAD;

    /** Begin graceful drain. Async-signal-safe. */
    void requestStop() DCG_ANY_THREAD;

    std::uint16_t port() const DCG_ANY_THREAD { return boundPort; }
    exp::Engine &engine() DCG_ANY_THREAD { return eng; }

    /** The current epoch's ring (just this node when standalone). */
    const HashRing &ringView() const DCG_ANY_THREAD
    {
        return curEp.ring;
    }
    const std::string &selfAddress() const DCG_ANY_THREAD
    {
        return selfAddr;
    }

    /** The replication layer (null when no persistent store).
     *  Exposed so tests can flush()/inspect fan-out state. */
    ReplicatedStore *replication() DCG_ANY_THREAD { return repl.get(); }

    /** The current ring epoch id (0 until the first live change). */
    std::uint64_t epoch() const DCG_ANY_THREAD { return curEp.epoch; }

  private:
    friend void registerServerOps();
    struct Conn
    {
        std::uint64_t id = 0;
        int fd = -1;
        std::string in;
        std::string out;
    };

    /** A deferred response: a submit parked until its job finishes, a
     *  peer's `epoch` ack or an admin verb parked until the rebalance
     *  drains. */
    struct ParkedResp
    {
        std::uint64_t connId = 0;
        bool hasRid = false;
        JsonValue rid;  ///< echoed verbatim on the deferred response
        std::chrono::steady_clock::time_point since;  ///< parked at
    };

    /** One job served on this node — a worker sees it only when
     *  every stored copy missed. */
    struct WorkItem
    {
        ParkedResp to;  ///< the submit this job answers
        exp::Job job;
        /** Holder attempts burned before this local run (a Forward
         *  chain falling back to "we hold a replica, run it here"). */
        unsigned failovers = 0;
    };

    /**
     * One forwarded job's failover walk, owned by the I/O thread and
     * stepped by PeerPool completions: holders in ring order, the
     * current position, accumulated per-holder errors. Lives in a
     * shared_ptr threaded through the completion callbacks until the
     * job is served (possibly locally) or every holder has failed.
     */
    struct Forward
    {
        ParkedResp to;     ///< the submit this job answers
        JobSpec spec;
        exp::Job job;      ///< for the serve-it-here fallback
        std::vector<std::size_t> holders;  ///< node-table indices
        std::size_t pos = 0;
        unsigned busyRetries = 0;
        /** Epoch the holder walk was computed under. A not_owner from
         *  a holder during a membership transition is retried (the
         *  peer has not installed the epoch yet) or — if our own
         *  epoch moved — rerouted against the new ring. */
        std::uint64_t epoch = 0;
        unsigned ownerRetries = 0;
        unsigned reroutes = 0;
        std::string errs;
    };

    /** A finished job on its way to finishJob(). */
    struct Event
    {
        ParkedResp to;  ///< the submit this job answers
        RunResult result;
        bool remote = false;
        bool failed = false;
        unsigned failovers = 0;  ///< holder attempts after the first
        std::string error;
    };

    /** The one in-flight membership change this node coordinates. */
    struct AdminChange
    {
        bool active = false;
        std::string verb;       ///< "join" or "leave"
        std::string node;       ///< endpoint being added/removed
        std::uint64_t epoch = 0;
        ParkedResp resp;        ///< the admin client, answered at end
        std::size_t pendingAcks = 0;
        bool localDone = false; ///< own rebalance push has drained
        bool failed = false;
        std::string errs;
        /** A broadcast target answered stale_epoch: its (higher)
         *  view, installed once this change resolves. */
        std::uint64_t higherEpoch = 0;
        std::vector<std::string> higherMembers;
    };

    /** The push queue moving remapped arcs after an epoch install. */
    struct Rebalance
    {
        bool active = false;
        std::uint64_t epoch = 0;
        struct Item
        {
            std::string key;
            std::vector<std::size_t> targets;  ///< node-table indices
        };
        std::deque<Item> queue;
        std::size_t inflight = 0;   ///< replicate pushes on the wire
        std::vector<ParkedResp> acks;  ///< deferred peer `epoch` acks
    };

    /// @name I/O-thread side
    /// @{
    void acceptClients();
    void readConn(Conn &conn);
    void writeConn(Conn &conn);
    void closeConn(Conn &conn);
    void handleLine(Conn &conn, const std::string &line);
    JsonValue handleSubmit(OpCall &c);
    JsonValue handleReplicate(const JsonValue &req);
    JsonValue handleFetch(const JsonValue &req);
    JsonValue handleCompact();
    void handleJoin(OpCall &c);
    void handleLeave(OpCall &c);
    JsonValue handleRing() const;
    void handleEpoch(OpCall &c);
    /** Node-table index for @p ep, appending (and growing the pool)
     *  when unknown. */
    std::size_t nodeIndexOf(const Endpoint &ep);
    /** (Re)build the pool over the node table and, store-backed, the
     *  replication layer that calls through it. Before run() only. */
    void buildPeers();
    /** Make {epoch, members} the current view: grow the node table,
     *  shift cur -> prev, rewire replication, start the rebalance
     *  push. The heart of a membership change. @p announcedPrev, when
     *  valid, becomes the previous view instead of this node's own
     *  superseded one — a joiner's own view ("just me") says nothing
     *  about where the cluster kept records, but the announced one
     *  does, and the handoff read leg depends on it. The rebalance
     *  push scan always uses the node's OWN old view: what *I* used
     *  to hold primary is what *I* push. */
    void installEpoch(std::uint64_t epoch,
                      const std::vector<std::string> &members,
                      unsigned reps,
                      const EpochView *announcedPrev = nullptr);
    void startRebalance(const EpochView &ownPrev);
    void stepRebalance();
    void finishRebalance();
    /** Send `epoch` to every @p targets member; acks feed adm. */
    void broadcastEpoch(const std::vector<std::string> &targets);
    void maybeFinishAdmin();
    /** Park @p c's response: the connection and rid to answer. */
    static ParkedResp park(const OpCall &c);
    /** Write a deferred response to its (possibly gone) connection. */
    void respondParked(const ParkedResp &p, JsonValue resp);
    JsonValue statsJson() const;
    void drainEvents();
    /** Count @p ev and write its reply: the end of a submit. */
    void finishJob(Event &ev);
    bool idle();
    void stepForward(const std::shared_ptr<Forward> &fwd);
    void forwardReply(const std::shared_ptr<Forward> &fwd,
                      PeerReply reply);
    void deliverForward(const std::shared_ptr<Forward> &fwd, Event ev);
    /** Serve @p item on this node: from the local store, else from
     *  the read-repair walk, else on a worker. */
    void serveLocal(WorkItem item);
    /** Answer @p item with @p r, a store or replica record. */
    void serveStored(const WorkItem &item, const RunResult &r);
    void enqueueLocal(WorkItem item);
    /** Routing consults the ring: the current epoch is not just this
     *  node. */
    bool clustered() const;
    /** Effective copies per key: the configured k, clamped to the
     *  current epoch's member count. */
    unsigned replicationFactor() const;
    /// @}

    /// @name Worker side
    /// @{
    void workerLoop();
    void pushEvent(Event ev);
    void wake();
    /// @}

    ServerConfig cfg;
    unsigned workerCount;
    exp::Engine eng;
    std::shared_ptr<ResultStore> store;
    std::shared_ptr<ReplicatedStore> repl;  ///< set when store-backed

    /** The multiplexed peer links, owned and driven by the I/O
     *  thread's event loop; never null. */
    std::unique_ptr<PeerPool> pool;
    std::uint64_t inflightForwards = 0;  ///< I/O thread only
    std::uint64_t inflightFetches = 0;   ///< open walks; I/O thread only

    /// @name Cluster state (owner/I/O thread; epochs mutate it live)
    /// @{
    /** Append-only node table: the index space peer links, the
     *  replication layer and Forward walks share. Members keep their
     *  slot across epochs; a left node's slot simply stops being
     *  routed to. */
    std::vector<Endpoint> nodes;
    std::string selfAddr;
    std::size_t selfIdx = 0;      ///< this node's index in nodes
    EpochView curEp;              ///< routes new work
    EpochView prevEp;             ///< dual-epoch routing + handoff
    unsigned epochReps = 1;       ///< configured k carried by epochs
    AdminChange adm;
    Rebalance rebal;
    std::uint64_t rebalArcsMoved = 0;  ///< keys whose arc remapped
    std::uint64_t rebalBytes = 0;      ///< replicate payload pushed
    std::uint64_t rebalPushFailures = 0;
    /// @}

    int listenFd = -1;
    int wakePipe[2] = {-1, -1};
    std::uint16_t boundPort = 0;
    std::atomic<bool> stopFlag{false};

    std::uint64_t nextConnId = 1;
    std::map<std::uint64_t, Conn> conns;  ///< conn id -> connection

    mutable std::mutex qMutex;
    std::condition_variable qCv;
    std::deque<WorkItem> pending DCG_GUARDED_BY(qMutex);
    bool workersStop DCG_GUARDED_BY(qMutex) = false;
    std::vector<std::thread> workerThreads;
    std::atomic<unsigned> busyWorkers{0};

    mutable std::mutex evMutex;
    std::deque<Event> events DCG_GUARDED_BY(evMutex);

    /// @name Service counters (I/O thread only)
    /// @{
    std::uint64_t peakInflightForwards = 0;
    std::uint64_t peakInflightFetches = 0;
    std::uint64_t jobsSubmitted = 0;
    std::uint64_t jobsCompleted = 0;
    std::uint64_t requestsInflight = 0;  ///< submits owed a reply
    std::uint64_t jobsForwarded = 0;
    std::uint64_t forwardFailures = 0;
    std::uint64_t failoverCount = 0;
    std::uint64_t replicateOps = 0;
    std::uint64_t fetchesServed = 0;
    std::uint64_t notOwnerReplies = 0;
    std::uint64_t submitsRejected = 0;
    std::uint64_t badRequests = 0;
    std::uint64_t latencySumUs = 0;
    std::uint64_t latencyMaxUs = 0;
    /// @}
};

} // namespace dcg::serve

#endif // DCG_SERVE_SERVER_HH
