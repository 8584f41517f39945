/**
 * @file
 * PeerLink/PeerPool: persistent multiplexed peer connections for the
 * serving layer — the link layer both dcgserved (peer forwarding,
 * replica pushes, read-repair fetches) and the cluster client
 * (connection pooling, pipelined grid fan-out) are built on.
 *
 * One PeerLink is one non-blocking TCP connection to one peer,
 * carrying many requests in flight at once: every frame is stamped
 * with kProtocolVersion and tagged with a pool-unique request id
 * ("rid"), responses are matched by rid in whatever order the peer
 * finishes them, and a per-request deadline (from --peer-timeout-ms)
 * fails a slow request without killing the link. Link death — EOF,
 * reset, a malformed frame, a response without a rid — fails every
 * in-flight request (callers fail over) and arms an automatic
 * reconnect with exponential backoff; requests issued while the link
 * is down wait for the reconnect instead of failing immediately.
 *
 * Every peer is built from the same tree and speaks the same protocol
 * version, so there is no negotiation: a peer that answers anything
 * else is treated as a broken link.
 *
 * Threading: a PeerPool is owned by exactly one event loop thread
 * (dcgserved's poll loop, or a LinkLoop's). All link state is touched
 * only on that thread; other threads hand requests in through the
 * mutex-guarded post()/callSync() injection path, and every
 * completion callback runs on the owner thread. The owner drives the
 * pool by including appendPollFds() in its poll set, then calling
 * dispatch() and runDue() each iteration with timeoutHintMs() folded
 * into its poll timeout. A callSync() returns only once the owner has
 * driven its request to completion or shutdown() has failed it, so
 * blocking callers must only exist while the owner loop runs — a
 * client's threads beside its LinkLoop. dcgserved never blocks on a
 * peer: its workers only post(), and every other exchange is a
 * call() from its event loop.
 */

#ifndef DCG_SERVE_PEERLINK_HH
#define DCG_SERVE_PEERLINK_HH

#include <poll.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/thread_annotations.hh"
#include "serve/endpoint.hh"

namespace dcg::serve {

/** Outcome of one multiplexed request. */
struct PeerReply
{
    bool transportOk = false;  ///< a parsed response arrived
    JsonValue resp;            ///< the response (when transportOk)
    std::string error;         ///< transport failure otherwise
};

using PeerCompletion = std::function<void(PeerReply)>;

class PeerPool
{
  public:
    struct Options
    {
        /** Per-request deadline (0 = none). Also bounds connection
         *  establishment, which falls back to 10s when this is 0 — a
         *  blackholed peer must never pin a request for the kernel
         *  default. */
        unsigned peerTimeoutMs = 0;
        /** Called (from any thread) when the owner loop must wake to
         *  process injected work. */
        std::function<void()> wake;
    };

    PeerPool(std::vector<Endpoint> peers, Options options);
    ~PeerPool();

    PeerPool(const PeerPool &) = delete;
    PeerPool &operator=(const PeerPool &) = delete;

    /// @name Owner-thread request surface
    /// @{
    /** Issue @p req to peer @p idx; @p cb runs on the owner thread
     *  with the rid-matched response or a transport failure. */
    void call(std::size_t idx, JsonValue req, PeerCompletion cb)
        DCG_OWNER_THREAD;

    /**
     * Append a peer (elastic membership: a node joining the ring gets
     * a link slot without rebuilding the pool — in-flight requests
     * and their completions are untouched). Returns the peer's index;
     * an endpoint already present returns its existing index. The
     * link table is a deque and every loop over it is index-based, so
     * growing it from a completion callback is safe.
     */
    std::size_t addPeer(const Endpoint &ep) DCG_OWNER_THREAD;

    /** Establish (or confirm) the TCP link to @p idx without sending
     *  a frame; @p cb gets transportOk on success. */
    void connectAsync(std::size_t idx, PeerCompletion cb)
        DCG_OWNER_THREAD;

    /** Run @p fn on the owner thread after @p delayMs. */
    void schedule(unsigned delayMs, std::function<void()> fn)
        DCG_OWNER_THREAD;
    /// @}

    /// @name Any-thread injection surface
    /// @{
    /** Thread-safe call(): enqueues and wakes the owner loop. Safe
     *  from the owner thread too (runs on the next runDue()). */
    void post(std::size_t idx, JsonValue req, PeerCompletion cb)
        DCG_ANY_THREAD;

    /** Blocking request from a NON-owner thread: post() + wait.
     *  False + @p err on transport failure or pool shutdown; fails
     *  fast once shutdown() has run. */
    bool callSync(std::size_t idx, const JsonValue &req,
                  JsonValue &resp, std::string &err) DCG_ANY_THREAD;

    /** Blocking connect probe from a NON-owner thread. */
    bool connectSync(std::size_t idx, std::string &err) DCG_ANY_THREAD;
    /// @}

    /// @name Owner-loop driving surface
    /// @{
    void appendPollFds(std::vector<pollfd> &fds) const
        DCG_OWNER_THREAD;
    void dispatch(const pollfd *fds, std::size_t n) DCG_OWNER_THREAD;
    /** Injected work, due timers, expired deadlines, reconnects.
     *  Call once per loop iteration. */
    void runDue() DCG_OWNER_THREAD;
    /** ms until the next deadline/timer (-1 = nothing scheduled). */
    int timeoutHintMs() const DCG_OWNER_THREAD;
    /** No request in flight anywhere (links, injection, timers). */
    bool idle() const DCG_OWNER_THREAD;
    /** Fail everything outstanding and close links. Further
     *  post()/callSync() fail fast. Idempotent. */
    void shutdown() DCG_OWNER_THREAD;
    /// @}

    /** Owner-thread: addPeer() can grow the table concurrently. */
    std::size_t peerCount() const DCG_OWNER_THREAD
    {
        return endpoints.size();
    }

    /// @name Counters (any thread)
    /// @{
    std::uint64_t requestsSent() const DCG_ANY_THREAD
    {
        return requests_.load();
    }
    std::uint64_t linkDeaths() const DCG_ANY_THREAD
    {
        return linkDeaths_.load();
    }
    std::uint64_t reconnects() const DCG_ANY_THREAD
    {
        return reconnects_.load();
    }
    /// @}

  private:
    struct Pending
    {
        PeerCompletion cb;
        std::chrono::steady_clock::time_point deadline{};
        bool hasDeadline = false;
    };

    struct Link
    {
        enum class State { Down, Connecting, Up };

        Endpoint ep;
        int fd = -1;
        State state = State::Down;
        bool everConnected = false;
        std::string out;  ///< bytes awaiting the socket
        std::string in;   ///< partial response line
        std::map<std::uint64_t, Pending> pending;  ///< rid -> request
        struct Queued
        {
            std::uint64_t rid;
            std::string line;
        };
        std::deque<Queued> waitq;  ///< serialized, awaiting connect
        std::chrono::steady_clock::time_point connectDeadline{};
        unsigned backoffMs = 0;
        bool retryArmed = false;
        std::chrono::steady_clock::time_point retryAt{};
        std::vector<PeerCompletion> connectWaiters;
    };

    struct Injected
    {
        std::size_t idx = 0;
        JsonValue req;
        PeerCompletion cb;
        bool connectProbe = false;
    };

    struct Timer
    {
        std::chrono::steady_clock::time_point when;
        std::function<void()> fn;
    };

    void wakeOwner();
    void maybeConnect(Link &link);
    void startConnect(Link &link);
    void onConnected(Link &link);
    void failConnect(Link &link, const std::string &why);
    void linkDeath(Link &link, const std::string &why);
    void armBackoff(Link &link);
    void failAllPending(Link &link, const std::string &err);
    void flushOut(Link &link);
    void readLink(Link &link);
    void handleResponse(Link &link, const std::string &line);
    unsigned connectTimeoutMs() const;

    std::vector<Endpoint> endpoints;
    Options opts;
    /** Index-aligned with endpoints. A deque so addPeer() growth
     *  never invalidates a Link reference held across a callback. */
    std::deque<Link> links;
    std::uint64_t nextRid = 1;
    std::vector<Timer> timers;

    mutable std::mutex injectMutex;
    std::vector<Injected> injected DCG_GUARDED_BY(injectMutex);

    std::atomic<bool> closed_{false};
    bool shutdownDone = false;

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> linkDeaths_{0};
    std::atomic<std::uint64_t> reconnects_{0};
};

/**
 * LinkLoop: a PeerPool plus the thread that drives it — the client-
 * side arrangement, where no event loop exists to own the pool.
 * start() spawns the loop; every pool interaction from other threads
 * goes through post()/callSync(). stop() (and the destructor) shuts
 * the pool down, failing anything still in flight.
 */
class LinkLoop
{
  public:
    LinkLoop(std::vector<Endpoint> peers, unsigned peerTimeoutMs);
    ~LinkLoop();

    LinkLoop(const LinkLoop &) = delete;
    LinkLoop &operator=(const LinkLoop &) = delete;

    void start() DCG_ANY_THREAD;
    void stop() DCG_ANY_THREAD;
    bool started() const DCG_ANY_THREAD { return thread.joinable(); }

    PeerPool &pool() DCG_ANY_THREAD { return *pool_; }

  private:
    void loop() DCG_OWNER_THREAD;

    int wakePipe[2] = {-1, -1};
    std::atomic<bool> stopFlag{false};
    std::unique_ptr<PeerPool> pool_;
    std::thread thread;
};

} // namespace dcg::serve

#endif // DCG_SERVE_PEERLINK_HH
