/**
 * @file
 * dcgserved — the networked simulation service.
 *
 * Listens on a TCP port for newline-delimited JSON requests (see
 * serve/protocol.hh), executes jobs on a worker pool through the
 * shared experiment Engine, and — with --store — persists every
 * result in an on-disk store so a restarted server answers previously
 * seen jobs without simulating at all.
 *
 * With --peers the process becomes one shard of a cluster: every node
 * names the same full ring (its own address included), job keys are
 * assigned by consistent hashing, and a submit for a peer-owned key is
 * transparently forwarded — so any node can serve any client while
 * each result is stored on exactly the shard the ring designates.
 * --replicas=K additionally keeps each record on K distinct ring
 * successors: results fan out to the follower holders in the
 * background, a key whose primary is down is served by a surviving
 * holder (failover), and a holder that lost its copy pulls it back
 * from a sibling (read-repair).
 *
 * Membership is elastic: the ring is versioned by
 * epochs, and the admin verbs `join`/`leave` (see `dcgsim --join`)
 * add or remove a node at runtime — only the remapped ~1/N of arcs
 * move, and requests keep being answered throughout via dual-epoch
 * routing. A standalone node started with --self is join-able by that
 * canonical address.
 *
 * Examples:
 *   dcgserved --port=7878 --store=/var/tmp/dcg-results
 *   dcgserved --port=0 --jobs=8 --queue-cap=64   # ephemeral port
 *   dcgserved --port=7878 --store=s1 \
 *             --peers=127.0.0.1:7878,127.0.0.1:7879   # shard 1 of 2
 *   dcgserved --port=7878 --store=s1 --replicas=2 \
 *             --peers=127.0.0.1:7878,127.0.0.1:7879,127.0.0.1:7880
 *
 * SIGINT/SIGTERM triggers a graceful drain: queued and running jobs
 * finish, responses flush, then the process exits 0.
 *
 * Signal handling uses the self-pipe pattern end to end: the handler
 * does no work beyond Server::requestStop(), which is limited to an
 * atomic flag store plus one write() to the server's wake pipe — both
 * async-signal-safe — and the poll() loop notices the flag on the
 * next wakeup. The handler also preserves errno, and the server
 * pointer it dereferences is a lock-free atomic so handler and main
 * thread never race on it.
 *
 * The first stdout line is "dcgserved: listening on HOST:PORT" so
 * scripts (and the CI loopback smoke job) can scrape the actual port
 * when started with --port=0.
 */

#include <cerrno>
#include <csignal>
#include <cstring>

#include <atomic>
#include <iostream>

#include "common/log.hh"
#include "common/options.hh"
#include "serve/server.hh"

using namespace dcg;

namespace {

std::atomic<serve::Server *> gServer{nullptr};
static_assert(std::atomic<serve::Server *>::is_always_lock_free,
              "signal handler needs a lock-free server pointer");

extern "C" void
onSignal(int)
{
    // Async-signal-safe only: atomic load/store and write(2). Keep
    // errno unchanged in case we interrupted a syscall whose caller
    // is mid errno-check.
    const int saved_errno = errno;
    if (serve::Server *s = gServer.load(std::memory_order_acquire))
        s->requestStop();
    errno = saved_errno;
}

/** Install @p handler for SIGINT/SIGTERM via sigaction (no SA_RESTART:
 *  poll() must return early so the drain starts immediately). */
void
installSignalHandlers(void (*handler)(int))
{
    struct sigaction sa = {};
    sa.sa_handler = handler;
    if (sigemptyset(&sa.sa_mask) != 0 ||
        sigaction(SIGINT, &sa, nullptr) != 0 ||
        sigaction(SIGTERM, &sa, nullptr) != 0)
        fatal("dcgserved: cannot install signal handlers: ",
              std::strerror(errno));
}

/** Strict non-negative integer option; fatal() with a clear message. */
std::int64_t
checkedCount(const Options &opts, const std::string &key,
             std::int64_t def, std::int64_t min)
{
    if (!opts.has(key))
        return def;
    const std::string raw = opts.getString(key, "");
    std::int64_t v = 0;
    if (!Options::parseInt(raw, v) || v < min)
        fatal("invalid --", key, "='", raw, "': expected an integer >= ",
              min);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv,
                 {"host", "port", "jobs", "queue-cap", "store",
                  "store-budget-bytes", "cache-budget-bytes", "peers",
                  "self", "replicas", "peer-timeout-ms",
                  "retry-after-ms", "drain-grace-ms", "help"});

    if (opts.has("help")) {
        std::cout <<
            "dcgserved [--host=ADDR] [--port=N (0 = ephemeral)]\n"
            "          [--jobs=N (workers; default DCG_JOBS or all"
            " cores)]\n"
            "          [--queue-cap=N (bounded job queue; default"
            " 256)]\n"
            "          [--store=DIR (persistent result store)]\n"
            "          [--store-budget-bytes=N (LRU-evict the store"
            " past N bytes)]\n"
            "          [--cache-budget-bytes=N (LRU-evict the in-memory"
            " cache)]\n"
            "          [--peers=HOST:PORT[,HOST:PORT...] (the full"
            " cluster ring,\n"
            "           this node included; enables sharding)]\n"
            "          [--self=HOST:PORT (this node's ring address;"
            " default\n"
            "           --host:--port; usable without --peers to make"
            " a\n"
            "           standalone node join-able by its canonical"
            " name)]\n"
            "          [--replicas=K (copies per key across the ring;"
            " needs\n"
            "           --peers and --store; default 1)]\n"
            "          [--peer-timeout-ms=N (per-request deadline on"
            " the\n"
            "           multiplexed peer links — forwards, replicate"
            " pushes,\n"
            "           fetches — and the bound on peer connect;"
            " default\n"
            "           0 = no deadline, connects capped at 10s)]\n"
            "          [--retry-after-ms=N] [--drain-grace-ms=N]\n";
        return 0;
    }

    serve::ServerConfig cfg;
    cfg.host = opts.getString("host", "127.0.0.1");
    cfg.port = static_cast<std::uint16_t>(
        checkedCount(opts, "port", 0, 0));
    cfg.workers = static_cast<unsigned>(
        checkedCount(opts, "jobs", 0, 0));
    cfg.queueCapacity = static_cast<std::size_t>(
        checkedCount(opts, "queue-cap", 256, 1));
    cfg.storeDir = opts.getString("store", "");
    cfg.storeBudgetBytes = static_cast<std::uint64_t>(
        checkedCount(opts, "store-budget-bytes", 0, 0));
    cfg.cacheBudgetBytes = static_cast<std::uint64_t>(
        checkedCount(opts, "cache-budget-bytes", 0, 0));
    cfg.retryAfterMs = static_cast<unsigned>(
        checkedCount(opts, "retry-after-ms", 250, 1));
    cfg.drainGraceMs = static_cast<unsigned>(
        checkedCount(opts, "drain-grace-ms", 5000, 0));
    cfg.replicas = static_cast<unsigned>(
        checkedCount(opts, "replicas", 1, 1));
    cfg.peerTimeoutMs = static_cast<unsigned>(
        checkedCount(opts, "peer-timeout-ms", 0, 0));

    if (cfg.replicas > 1) {
        if (!opts.has("peers"))
            fatal("--replicas needs --peers (a cluster to replicate"
                  " across)");
        if (cfg.storeDir.empty())
            fatal("--replicas needs --store (replicas are persistent"
                  " records)");
    }

    // --self stands on its own now: a standalone node launched with a
    // canonical address is what a live `join` adds to a ring.
    if (opts.has("self")) {
        serve::Endpoint self;
        std::string serr;
        if (!serve::parseEndpoint(opts.getString("self", ""), self,
                                  serr))
            fatal("invalid --self: ", serr);
        cfg.self = self.str();
    }
    if (opts.has("peers")) {
        std::string err;
        if (!serve::parseEndpoints(opts.getString("peers", ""),
                                   cfg.peers, err))
            fatal("invalid --peers list: ", err);
        if (cfg.self.empty()) {
            if (cfg.port != 0)
                cfg.self = cfg.host + ":" + std::to_string(cfg.port);
            else
                fatal("cluster mode with --port=0 needs an explicit"
                      " --self=HOST:PORT (peers cannot name an"
                      " ephemeral port)");
        }
    }

    serve::Server server(cfg);
    gServer.store(&server, std::memory_order_release);
    installSignalHandlers(onSignal);

    std::cout << "dcgserved: listening on " << cfg.host << ":"
              << server.port() << std::endl;
    if (!cfg.storeDir.empty())
        std::cout << "dcgserved: result store at " << cfg.storeDir
                  << std::endl;
    if (!cfg.peers.empty()) {
        std::cout << "dcgserved: cluster shard " << cfg.self << " of "
                  << cfg.peers.size() << " node(s)";
        if (cfg.replicas > 1)
            std::cout << ", replicas=" << cfg.replicas;
        std::cout << std::endl;
    }

    server.run();

    gServer.store(nullptr, std::memory_order_release);
    std::cout << "dcgserved: drained, exiting" << std::endl;
    return 0;
}
