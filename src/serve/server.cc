#include "serve/server.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/log.hh"
#include "serve/netio.hh"

namespace dcg::serve {

namespace {

/** Cap a single request line; beyond this the peer is misbehaving. */
constexpr std::size_t kMaxLineBytes = 1 << 20;

/** How often a Forward chain re-tries one busy holder before moving
 *  on — mirrors the client-side submit retry bound. */
constexpr unsigned kMaxForwardBusyRetries = 600;

/** Replicate pushes a rebalance keeps on the wire at once — enough to
 *  pipeline the links, small enough not to starve forwarded work. */
constexpr std::size_t kMaxRebalanceInflight = 4;

/** During a membership transition a holder may answer not_owner
 *  because it has not installed the new epoch yet; the Forward chain
 *  re-asks the same holder instead of burning it. */
constexpr unsigned kMaxForwardOwnerRetries = 200;
constexpr unsigned kOwnerRetryDelayMs = 50;

/** A submit's success reply: the one result, nothing else. */
JsonValue
resultResponse(const RunResult &r)
{
    JsonValue resp = okResponse();
    resp.set("result", resultsToJson({r}));
    return resp;
}

void
setNonBlocking(int fd)
{
    const int flags = fcntl(fd, F_GETFL, 0);
    if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        // A blocking fd degrades the event loop but is not fatal;
        // every read/write path already handles short operations.
        warn("dcgserved: cannot set O_NONBLOCK on fd ", fd, ": ",
             std::strerror(errno));
    }
}

} // namespace

Server::Server(const ServerConfig &config)
    : cfg(config),
      workerCount(config.workers ? config.workers
                                 : exp::Engine::defaultJobs()),
      eng(workerCount)
{
    if (!cfg.storeDir.empty()) {
        store = std::make_shared<ResultStore>(cfg.storeDir);
        eng.attachStore(store);
        // One startup compaction: clear interrupted-write leftovers
        // and invalid records before the first request arrives.
        const std::size_t removed = store->compact();
        if (removed)
            inform("dcgserved: startup compaction removed ", removed,
                   " stale file(s) from '", cfg.storeDir, "'");
        if (cfg.storeBudgetBytes)
            store->setBudgetBytes(cfg.storeBudgetBytes);
    }

    if (pipe(wakePipe) != 0)
        fatal("dcgserved: cannot create wake pipe: ",
              std::strerror(errno));
    setNonBlocking(wakePipe[0]);
    setNonBlocking(wakePipe[1]);

    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
    addrinfo *res = nullptr;
    const std::string port_str = std::to_string(cfg.port);
    const int rc =
        getaddrinfo(cfg.host.c_str(), port_str.c_str(), &hints, &res);
    if (rc != 0)
        fatal("dcgserved: cannot resolve '", cfg.host,
              "': ", gai_strerror(rc));

    listenFd = socket(res->ai_family, res->ai_socktype,
                      res->ai_protocol);
    if (listenFd < 0) {
        freeaddrinfo(res);
        fatal("dcgserved: cannot create socket: ",
              std::strerror(errno));
    }
    const int one = 1;
    if (setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one)) != 0) {
        // Without SO_REUSEADDR a quick restart may fail to bind; warn
        // now so that the later bind error has context.
        warn("dcgserved: setsockopt(SO_REUSEADDR) failed: ",
             std::strerror(errno));
    }
    if (bind(listenFd, res->ai_addr, res->ai_addrlen) != 0) {
        const int e = errno;
        freeaddrinfo(res);
        fatal("dcgserved: cannot bind ", cfg.host, ":", cfg.port, ": ",
              std::strerror(e));
    }
    freeaddrinfo(res);
    if (listen(listenFd, 64) != 0)
        fatal("dcgserved: listen failed: ", std::strerror(errno));
    setNonBlocking(listenFd);

    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    if (getsockname(listenFd, reinterpret_cast<sockaddr *>(&bound),
                    &blen) == 0)
        boundPort = ntohs(bound.sin_port);

    // This node's canonical identity and the epoch-0 standalone view:
    // a one-member ring a live `join` can grow from.
    selfAddr = !cfg.self.empty()
                   ? cfg.self
                   : cfg.host + ":" + std::to_string(boundPort);
    {
        Endpoint self_ep;
        std::string eerr;
        if (!parseEndpoint(selfAddr, self_ep, eerr))
            fatal("dcgserved: bad self address '", selfAddr, "': ",
                  eerr);
        nodes = {self_ep};
    }
    selfIdx = 0;
    curEp.epoch = 0;
    curEp.members = {selfAddr};
    curEp.nodeIdx = {0};
    curEp.ring = HashRing(curEp.members);
    epochReps = std::max(cfg.replicas, 1u);

    if (cfg.peers.empty())
        buildPeers();
    else
        configureCluster(cfg.peers, cfg.self);
}

void
Server::buildPeers()
{
    PeerPool::Options po;
    po.peerTimeoutMs = cfg.peerTimeoutMs;
    po.wake = [this] { wake(); };
    pool = std::make_unique<PeerPool>(nodes, std::move(po));
    if (store) {
        // Every store-backed node carries the replication layer, even
        // standalone (k=1 is a pass-through): a later live join needs
        // its handoff read path, and the Engine's store pointer cannot
        // be swapped safely once workers run.
        repl = std::make_shared<ReplicatedStore>(store, selfIdx, curEp,
                                                 epochReps, *pool);
        eng.attachStore(repl);
    }
}

void
Server::configureCluster(const std::vector<Endpoint> &allNodes,
                         const std::string &self)
{
    if (allNodes.empty())
        fatal("dcgserved: cluster needs at least one node");
    bool found = false;
    std::size_t self_idx = 0;
    for (std::size_t i = 0; i < allNodes.size(); ++i) {
        if (allNodes[i].str() == self) {
            found = true;
            self_idx = i;
        }
    }
    if (!found)
        fatal("dcgserved: own address '", self,
              "' is not in the cluster node list");
    nodes = allNodes;
    selfAddr = self;
    selfIdx = self_idx;

    // Epoch 0: the statically configured member list; live joins and
    // leaves advance from here. The node table and the member list
    // coincide until the first membership change.
    curEp = EpochView{};
    curEp.epoch = 0;
    curEp.members = endpointStrings(nodes);
    for (std::size_t i = 0; i < nodes.size(); ++i)
        curEp.nodeIdx.push_back(i);
    curEp.ring = HashRing(curEp.members);
    prevEp = EpochView{};
    epochReps = std::max(cfg.replicas, 1u);

    const unsigned k = replicationFactor();
    if (cfg.replicas > 1 && clustered()) {
        if (!store)
            fatal("dcgserved: replication needs a persistent store "
                  "(--replicas without --store)");
        if (k < cfg.replicas)
            warn("dcgserved: --replicas=", cfg.replicas,
                 " clamped to the cluster size (", k, ")");
    } else if (cfg.replicas > 1) {
        warn("dcgserved: --replicas=", cfg.replicas,
             " ignored on a single-node cluster");
    }
    buildPeers();

    if (clustered())
        inform("dcgserved: cluster of ", nodes.size(),
               " node(s); this shard is ", selfAddr,
               k > 1 ? " (replication factor " + std::to_string(k) + ")"
                     : "");
}

bool
Server::clustered() const
{
    return curEp.members.size() != 1 || curEp.members.front() != selfAddr;
}

unsigned
Server::replicationFactor() const
{
    return static_cast<unsigned>(
        std::min<std::size_t>(epochReps, curEp.members.size()));
}

Server::~Server()
{
    // Fail any outstanding peer work while every member its
    // completions touch is still alive.
    pool->shutdown();
    {
        std::lock_guard<std::mutex> lk(qMutex);
        workersStop = true;
    }
    qCv.notify_all();
    for (std::thread &t : workerThreads)
        if (t.joinable())
            t.join();
    for (auto &[id, c] : conns)
        if (c.fd >= 0)
            close(c.fd);
    if (listenFd >= 0)
        close(listenFd);
    if (wakePipe[0] >= 0)
        close(wakePipe[0]);
    if (wakePipe[1] >= 0)
        close(wakePipe[1]);
}

void
Server::requestStop()
{
    // Only async-signal-safe operations: dcgserved calls this from
    // its SIGINT/SIGTERM handler.
    stopFlag.store(true, std::memory_order_release);
    const char b = 1;
    const ssize_t n = net::writeRetry(wakePipe[1], &b, 1);
    (void)n;
}

void
Server::wake()
{
    const char b = 1;
    const ssize_t n = net::writeRetry(wakePipe[1], &b, 1);
    (void)n;
}

void
Server::pushEvent(Event ev)
{
    std::lock_guard<std::mutex> lk(evMutex);
    events.push_back(std::move(ev));
}

void
Server::workerLoop()
{
    while (true) {
        WorkItem item;
        {
            std::unique_lock<std::mutex> lk(qMutex);
            qCv.wait(lk, [this] {
                return workersStop || !pending.empty();
            });
            if (workersStop)
                return;
            item = std::move(pending.front());
            pending.pop_front();
            // Claim busy before releasing the lock so idle() can never
            // observe "queue empty, nobody busy" mid-handoff.
            busyWorkers.fetch_add(1, std::memory_order_acq_rel);
        }
        // Workers only simulate: a job gets here once the local store
        // and every holder's replica have missed (serveLocal). runOne()
        // reads the local store once more — a replica push may have
        // landed since — and the put after a simulation posts its
        // replica pushes without waiting on them. Every peer exchange
        // lives on the I/O thread's multiplexed links, never here.
        Event done;
        done.to = std::move(item.to);
        done.failovers = item.failovers;
        done.result = eng.runOne(item.job);
        if (cfg.cacheBudgetBytes)
            eng.evictTo(cfg.cacheBudgetBytes);

        pushEvent(std::move(done));
        busyWorkers.fetch_sub(1, std::memory_order_acq_rel);
        wake();
    }
}

bool
Server::idle()
{
    if (inflightForwards != 0 || inflightFetches != 0 || !pool->idle())
        return false;
    if (rebal.active || adm.active)
        return false;
    {
        std::lock_guard<std::mutex> lk(qMutex);
        if (!pending.empty() ||
            busyWorkers.load(std::memory_order_acquire) != 0)
            return false;
    }
    {
        std::lock_guard<std::mutex> lk(evMutex);
        if (!events.empty())
            return false;
    }
    for (const auto &[id, c] : conns)
        if (c.fd >= 0 && !c.out.empty())
            return false;
    return true;
}

void
Server::run()
{
    workerThreads.reserve(workerCount);
    for (unsigned i = 0; i < workerCount; ++i)
        workerThreads.emplace_back([this] { workerLoop(); });

    bool drain_announced = false;
    std::chrono::steady_clock::time_point drain_start{};

    while (true) {
        const bool draining = stopFlag.load(std::memory_order_acquire);
        if (draining && listenFd >= 0) {
            close(listenFd);
            listenFd = -1;
        }
        if (draining && !drain_announced) {
            drain_announced = true;
            drain_start = std::chrono::steady_clock::now();
            inform("dcgserved: draining (", requestsInflight,
                   " job(s) outstanding)");
        }

        drainEvents();
        pool->runDue();

        if (draining) {
            if (idle())
                break;
            const auto waited =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - drain_start);
            if (waited.count() >=
                static_cast<long long>(cfg.drainGraceMs)) {
                warn("dcgserved: drain grace expired; abandoning "
                     "undelivered output");
                break;
            }
        }

        // Build the poll set: wake pipe, listener, every connection.
        std::vector<pollfd> fds;
        std::vector<std::uint64_t> fd_conn;  // conn id per pollfd; 0=none
        fds.push_back({wakePipe[0], POLLIN, 0});
        fd_conn.push_back(0);
        if (listenFd >= 0) {
            fds.push_back({listenFd, POLLIN, 0});
            fd_conn.push_back(0);
        }
        for (const auto &[id, c] : conns) {
            if (c.fd < 0)
                continue;
            short ev = POLLIN;
            if (!c.out.empty())
                ev |= POLLOUT;
            fds.push_back({c.fd, ev, 0});
            fd_conn.push_back(id);
        }
        const std::size_t ownFds = fds.size();
        pool->appendPollFds(fds);
        fd_conn.resize(fds.size(), 0);

        int timeout_ms = draining ? 50 : -1;
        const int hint = pool->timeoutHintMs();
        if (hint >= 0 && (timeout_ms < 0 || hint < timeout_ms))
            timeout_ms = hint;
        const int nready =
            net::pollRetry(fds.data(), static_cast<nfds_t>(fds.size()),
                           timeout_ms);
        if (nready < 0)
            fatal("dcgserved: poll failed: ", std::strerror(errno));

        for (std::size_t i = 0; i < ownFds; ++i) {
            if (!fds[i].revents)
                continue;
            if (fds[i].fd == wakePipe[0]) {
                char buf[256];
                while (net::readRetry(wakePipe[0], buf, sizeof(buf)) >
                       0) {
                }
                continue;
            }
            if (listenFd >= 0 && fds[i].fd == listenFd) {
                acceptClients();
                continue;
            }
            auto it = conns.find(fd_conn[i]);
            if (it == conns.end() || it->second.fd < 0)
                continue;
            Conn &conn = it->second;
            if (fds[i].revents & POLLIN)
                readConn(conn);
            if (conn.fd >= 0 && (fds[i].revents & POLLOUT))
                writeConn(conn);
            if (conn.fd >= 0 &&
                (fds[i].revents & (POLLERR | POLLNVAL)))
                closeConn(conn);
        }
        pool->dispatch(fds.data() + ownFds, fds.size() - ownFds);

        // Sweep connections closed during this iteration.
        for (auto it = conns.begin(); it != conns.end();) {
            if (it->second.fd < 0)
                it = conns.erase(it);
            else
                ++it;
        }
    }

    // Stop the workers before failing what the drain grace abandoned:
    // a walk the shutdown ends as a miss must not start a simulation.
    // From here on every peer exchange fails fast, and the replies of
    // abandoned forwards and walks land in conn buffers about to
    // close — the same fate as any other undelivered output.
    {
        std::lock_guard<std::mutex> lk(qMutex);
        workersStop = true;
    }
    qCv.notify_all();
    pool->shutdown();
    drainEvents();

    for (auto &[id, c] : conns)
        closeConn(c);
    conns.clear();
    if (listenFd >= 0) {
        close(listenFd);
        listenFd = -1;
    }
    for (std::thread &t : workerThreads)
        t.join();
    workerThreads.clear();
}

void
Server::acceptClients()
{
    while (true) {
        const int fd = net::acceptRetry(listenFd);
        if (fd < 0)
            return;  // EAGAIN/EWOULDBLOCK: try next iteration
        setNonBlocking(fd);
        Conn c;
        c.id = nextConnId++;
        c.fd = fd;
        conns.emplace(c.id, std::move(c));
    }
}

void
Server::closeConn(Conn &conn)
{
    if (conn.fd >= 0) {
        close(conn.fd);
        conn.fd = -1;  // swept (and erased) at the end of the loop
    }
}

void
Server::readConn(Conn &conn)
{
    char buf[4096];
    while (true) {
        const ssize_t n = net::recvRetry(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            conn.in.append(buf, static_cast<std::size_t>(n));
            if (conn.in.size() > kMaxLineBytes) {
                warn("dcgserved: dropping connection with oversized "
                     "request line");
                closeConn(conn);
                return;
            }
            continue;
        }
        if (n == 0) {
            closeConn(conn);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        closeConn(conn);
        return;
    }

    std::size_t start = 0;
    while (true) {
        const std::size_t nl = conn.in.find('\n', start);
        if (nl == std::string::npos)
            break;
        std::string line = conn.in.substr(start, nl - start);
        start = nl + 1;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (!line.empty())
            handleLine(conn, line);
        if (conn.fd < 0)
            return;
    }
    conn.in.erase(0, start);
}

void
Server::writeConn(Conn &conn)
{
    while (!conn.out.empty()) {
        const ssize_t n = net::sendRetry(conn.fd, conn.out.data(),
                                         conn.out.size(), MSG_NOSIGNAL);
        if (n > 0) {
            conn.out.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        closeConn(conn);
        return;
    }
}

void
Server::handleLine(Conn &conn, const std::string &line)
{
    JsonValue req;
    JsonValue resp;
    std::string err;
    unsigned version = kProtocolVersion;
    const OpHandler *handler = nullptr;
    if (!JsonValue::parse(line, req, err) || !req.isObject()) {
        resp = errorResponse("bad_request",
                             err.empty() ? "request must be a JSON object"
                                         : err);
        req = JsonValue();  // nothing to echo from an unparsed line
    } else if (!requestVersion(req, version, err)) {
        resp = errorResponse("bad_request", err);
    } else if (version != kProtocolVersion) {
        resp = unsupportedVersionResponse(version);
    } else {
        // Registry dispatch: every verb resolves through the op
        // catalog (serve/ops.hh); there is no verb chain.
        const std::string op = req.get("op").asString();
        const auto *entry = ops().find(op);
        if (entry)
            handler = &entry->fn;
        else
            resp = errorResponse("bad_request",
                                 "unknown op '" + op + "' (expected " +
                                     ops().joined() + ")");
    }

    if (handler) {
        OpCall call{req, conn.id, JsonValue(), false};
        (*handler)(*this, call);
        if (call.deferred)
            return;  // the response is parked; written on completion
        resp = std::move(call.resp);
    } else {
        ++badRequests;
    }
    stampVersion(resp, kProtocolVersion);
    echoRid(req, resp);
    conn.out += resp.dump();
    conn.out += '\n';
}

void
registerServerOps()
{
    static const bool once = [] {
        ops().add({"submit", false,
                   "run or fetch one simulation job; answered when it "
                   "finishes"},
                  [](Server &s, OpCall &c) {
                      c.resp =
                          s.stopFlag.load(std::memory_order_acquire)
                              ? errorResponse(
                                    "draining",
                                    "server is shutting down")
                              : s.handleSubmit(c);
                  });
        ops().add({"stats", false,
                   "service counters and the op catalog"},
                  [](Server &s, OpCall &c) {
                      c.resp = okResponse();
                      c.resp.set("stats", s.statsJson());
                  });
        ops().add({"shutdown", true, "begin graceful drain"},
                  [](Server &s, OpCall &c) {
                      c.resp = okResponse();
                      c.resp.set("draining", JsonValue::boolean(true));
                      s.requestStop();
                  });
        ops().add({"compact", true,
                   "garbage-collect the result store"},
                  [](Server &s, OpCall &c) {
                      c.resp = s.handleCompact();
                  });
        // Accepted even while draining: a late replica or read-repair
        // write is a harmless local put that helps the cluster heal.
        ops().add({"replicate", false,
                   "store a replica record (peer-to-peer)"},
                  [](Server &s, OpCall &c) {
                      c.resp = s.handleReplicate(c.req);
                  });
        ops().add({"fetch", false,
                   "serve a stored record to a peer"},
                  [](Server &s, OpCall &c) {
                      c.resp = s.handleFetch(c.req);
                  });
        ops().add({"join", true,
                   "add a node to the ring (advances the epoch)"},
                  [](Server &s, OpCall &c) { s.handleJoin(c); });
        ops().add({"leave", true,
                   "remove a node from the ring (advances the epoch)"},
                  [](Server &s, OpCall &c) { s.handleLeave(c); });
        ops().add({"ring", true,
                   "current epoch, members and rebalance state"},
                  [](Server &s, OpCall &c) {
                      c.resp = s.handleRing();
                  });
        ops().add({"epoch", false,
                   "peer-to-peer epoch announcement"},
                  [](Server &s, OpCall &c) { s.handleEpoch(c); });
        return true;
    }();
    (void)once;
}

JsonValue
Server::handleSubmit(OpCall &c)
{
    const JsonValue &req = c.req;
    JobSpec spec;
    std::string err;
    if (!req.has("job") || !JobSpec::fromJson(req.get("job"), spec, err)) {
        ++badRequests;
        return errorResponse("bad_request",
                             err.empty() ? "submit needs a 'job'" : err);
    }
    exp::Job job = spec.toJob();

    // Ring ownership. A forwarded submit for a key we do not own means
    // the peer's ring disagrees with ours: answer not_owner rather than
    // forwarding again (no loops, ever).
    std::vector<std::size_t> holders;
    bool remote = false;
    if (clustered()) {
        const std::string key = exp::jobKey(job);
        holders = curEp.holders(key, epochReps);
        remote = holders.front() != selfIdx;
        // A forwarded submit is served here whenever this node holds
        // the key under the *current or previous* epoch: a
        // replica-marked forward is a failover onto a holder, and
        // during a membership transition the sender's ring may
        // lawfully disagree with ours — dual-epoch routing means no
        // request misses mid-rebalance. A node that holds under
        // neither epoch still bounces not_owner, so a genuinely bad
        // ring cannot loop.
        if (remote && req.get("forwarded").asBool(false)) {
            bool serve_here = std::find(holders.begin(), holders.end(),
                                        selfIdx) != holders.end();
            if (!serve_here && prevEp.valid()) {
                const auto ph = prevEp.holders(key, epochReps);
                serve_here = std::find(ph.begin(), ph.end(), selfIdx) !=
                             ph.end();
            }
            if (!serve_here) {
                ++notOwnerReplies;
                return notOwnerResponse(nodes[holders.front()].str());
            }
            remote = false;
        }
    }

    // Peek the warm cache first: a satisfied job is answered now and
    // never occupies a queue slot or a worker.
    RunResult cached;
    if (!remote && eng.tryCached(job, cached)) {
        ++jobsSubmitted;
        ++jobsCompleted;  // zero-latency completion
        return resultResponse(cached);
    }

    // Bounded admission. In-flight forwards and open read-repair walks
    // hold no queue slot but count against the same capacity — peer
    // traffic must feel backpressure too.
    std::size_t queue_len;
    {
        std::lock_guard<std::mutex> lk(qMutex);
        queue_len = pending.size();
    }
    queue_len += static_cast<std::size_t>(inflightForwards +
                                          inflightFetches);
    if (queue_len >= cfg.queueCapacity) {
        ++submitsRejected;
        JsonValue resp = errorResponse("busy", "job queue is full");
        resp.set("retry_after_ms",
                 JsonValue::integer(std::uint64_t{cfg.retryAfterMs}));
        resp.set("queue_depth",
                 JsonValue::integer(std::uint64_t{queue_len}));
        resp.set("queue_capacity",
                 JsonValue::integer(std::uint64_t{cfg.queueCapacity}));
        return resp;
    }

    // Admitted: the reply is deferred until the job finishes, and its
    // target travels with the job.
    ++jobsSubmitted;
    ++requestsInflight;
    c.deferred = true;
    if (remote) {
        // The job leaves on the owner's multiplexed link right now;
        // its failover walk is a continuation chain stepped by link
        // completions on this thread.
        auto fwd = std::make_shared<Forward>();
        fwd->to = park(c);
        fwd->spec = std::move(spec);
        fwd->job = std::move(job);
        fwd->holders = std::move(holders);
        fwd->epoch = curEp.epoch;
        ++inflightForwards;
        peakInflightForwards =
            std::max(peakInflightForwards, inflightForwards);
        stepForward(fwd);
    } else {
        WorkItem item;
        item.to = park(c);
        item.job = std::move(job);
        serveLocal(std::move(item));
    }
    return JsonValue();
}

void
Server::serveLocal(WorkItem item)
{
    if (!repl) {
        enqueueLocal(std::move(item));
        return;
    }
    // The local store first, read here as handleFetch reads it.
    const std::string key = exp::jobKey(item.job);
    RunResult stored;
    if (repl->get(key, stored)) {
        serveStored(item, stored);
        return;
    }
    // Then the read-repair walk over the other holders, stepped by
    // link completions on this thread; a worker gets the job only
    // when every holder missed.
    auto held = std::make_shared<WorkItem>(std::move(item));
    ++inflightFetches;
    repl->fetch(key, [this, held](const RunResult *hit) {
        --inflightFetches;
        if (hit)
            serveStored(*held, *hit);
        else
            enqueueLocal(std::move(*held));
    });
    // After the call: a walk that ended before fetch() returned was
    // never open.
    peakInflightFetches = std::max(peakInflightFetches, inflightFetches);
}

void
Server::serveStored(const WorkItem &item, const RunResult &r)
{
    eng.adoptStored(item.job, r);
    if (cfg.cacheBudgetBytes)
        eng.evictTo(cfg.cacheBudgetBytes);
    Event ev;
    ev.to = item.to;
    ev.failovers = item.failovers;
    ev.result = r;
    finishJob(ev);
}

void
Server::enqueueLocal(WorkItem item)
{
    {
        std::lock_guard<std::mutex> lk(qMutex);
        pending.push_back(std::move(item));
    }
    qCv.notify_all();
}

void
Server::stepForward(const std::shared_ptr<Forward> &fwd)
{
    if (fwd->pos >= fwd->holders.size()) {
        Event ev;
        ev.remote = true;
        ev.failed = true;
        ev.failovers = fwd->holders.empty()
                           ? 0
                           : static_cast<unsigned>(
                                 fwd->holders.size() - 1);
        ev.error = "forward failed on every holder: " + fwd->errs;
        deliverForward(fwd, std::move(ev));
        return;
    }

    const std::size_t idx = fwd->holders[fwd->pos];
    if (idx == selfIdx) {
        // We hold a replica: serve the job here. The item carries the
        // failovers burned getting to us; the forward slot converts
        // into a walk or queue slot.
        WorkItem item;
        item.to = fwd->to;
        item.job = fwd->job;
        item.failovers = static_cast<unsigned>(fwd->pos);
        --inflightForwards;
        serveLocal(std::move(item));
        return;
    }

    JsonValue submit = JsonValue::object();
    submit.set("op", JsonValue::string("submit"));
    submit.set("job", fwd->spec.toJson());
    submit.set("forwarded", JsonValue::boolean(true));
    if (fwd->pos > 0)
        submit.set("replica", JsonValue::boolean(true));
    pool->call(idx, std::move(submit),
               [this, fwd](PeerReply reply) {
                   forwardReply(fwd, std::move(reply));
               });
}

void
Server::forwardReply(const std::shared_ptr<Forward> &fwd,
                     PeerReply reply)
{
    const std::size_t idx = fwd->holders[fwd->pos];
    auto recordErr = [&](const std::string &what) {
        if (!fwd->errs.empty())
            fwd->errs += "; ";
        fwd->errs += nodes[idx].str() + ": " + what;
    };

    if (!reply.transportOk) {
        recordErr(reply.error);
        ++fwd->pos;
        stepForward(fwd);
        return;
    }

    const JsonValue &resp = reply.resp;
    if (resp.get("ok").asBool(false)) {
        std::vector<RunResult> one;
        std::string err;
        if (resultsFromJson(resp.get("result"), one, err) &&
            one.size() == 1) {
            Event ev;
            ev.remote = true;
            ev.failovers = static_cast<unsigned>(fwd->pos);
            ev.result = std::move(one.front());
            deliverForward(fwd, std::move(ev));
            return;
        }
        recordErr("malformed forwarded result" +
                  (err.empty() ? "" : ": " + err));
        ++fwd->pos;
        stepForward(fwd);
        return;
    }

    const std::string code = resp.get("error").asString();
    if (code == "busy") {
        if (++fwd->busyRetries >= kMaxForwardBusyRetries) {
            recordErr("stayed busy after " +
                      std::to_string(fwd->busyRetries) + " retries");
            ++fwd->pos;
            stepForward(fwd);
            return;
        }
        const std::uint64_t hint =
            resp.get("retry_after_ms").asU64(250);
        pool->schedule(static_cast<unsigned>(hint ? hint : 250),
                       [this, fwd] { stepForward(fwd); });
        return;
    }

    // During a membership transition (only then: epochs advance past
    // 0) a holder may bounce not_owner because the new epoch has not
    // reached it yet. If our own epoch moved since the walk was
    // computed, recompute the holders against the new ring; otherwise
    // re-ask the same holder shortly — it converges once the epoch
    // lands there. A static cluster (epoch 0) keeps the original
    // walk-on semantics.
    if ((code == "not_owner" || code == "stale_epoch") &&
        curEp.epoch > 0) {
        if (fwd->epoch != curEp.epoch && fwd->reroutes < 2) {
            ++fwd->reroutes;
            fwd->epoch = curEp.epoch;
            fwd->busyRetries = 0;
            fwd->ownerRetries = 0;
            fwd->holders =
                curEp.holders(exp::jobKey(fwd->job), epochReps);
            fwd->pos = 0;
            stepForward(fwd);
            return;
        }
        if (++fwd->ownerRetries < kMaxForwardOwnerRetries) {
            pool->schedule(kOwnerRetryDelayMs,
                           [this, fwd] { stepForward(fwd); });
            return;
        }
    }

    recordErr("rejected forwarded job (" + code + ")" +
              (resp.has("detail") ? ": " + resp.get("detail").asString()
                                  : ""));
    ++fwd->pos;
    stepForward(fwd);
}

void
Server::deliverForward(const std::shared_ptr<Forward> &fwd, Event ev)
{
    --inflightForwards;
    ev.to = fwd->to;
    finishJob(ev);
}

JsonValue
Server::handleReplicate(const JsonValue &req)
{
    if (!store)
        return errorResponse("no_store",
                             "server runs without a persistent store");
    const std::string key = req.get("key").asString();
    if (key.empty()) {
        ++badRequests;
        return errorResponse("bad_request", "replicate needs a key");
    }
    std::vector<RunResult> one;
    std::string err;
    if (!resultsFromJson(req.get("result"), one, err) ||
        one.size() != 1) {
        ++badRequests;
        return errorResponse("bad_request",
                             "replicate needs exactly one result" +
                                 (err.empty() ? "" : ": " + err));
    }
    // Into the plain local store, bypassing the replication layer —
    // accepting a replica must never trigger another fan-out.
    store->putReplica(key, one.front());
    ++replicateOps;
    return okResponse();
}

JsonValue
Server::handleFetch(const JsonValue &req)
{
    const std::string key = req.get("key").asString();
    if (key.empty()) {
        ++badRequests;
        return errorResponse("bad_request", "fetch needs a key");
    }
    RunResult r;
    // Local store only — never the replication layer — so a fetch
    // cannot cascade into fetches of fetches across the cluster.
    if (!store || !store->get(key, r))
        return errorResponse("not_found", "no record for this key");
    ++fetchesServed;
    JsonValue resp = okResponse();
    resp.set("key", JsonValue::string(key));
    resp.set("result", resultsToJson({r}));
    return resp;
}

JsonValue
Server::handleCompact()
{
    if (!store)
        return errorResponse("no_store",
                             "server runs without a persistent store");
    const std::size_t removed = store->compact();
    JsonValue resp = okResponse();
    resp.set("removed", JsonValue::integer(std::uint64_t{removed}));
    resp.set("records",
             JsonValue::integer(std::uint64_t{store->entries()}));
    resp.set("bytes", JsonValue::integer(store->bytes()));
    return resp;
}

std::size_t
Server::nodeIndexOf(const Endpoint &ep)
{
    for (std::size_t i = 0; i < nodes.size(); ++i)
        if (nodes[i] == ep)
            return i;
    // Append-only: a node keeps its table slot for the life of the
    // process, so in-flight Forward walks and pool links never see
    // their indices shift underneath them.
    nodes.push_back(ep);
    pool->addPeer(ep);
    return nodes.size() - 1;
}

void
Server::installEpoch(std::uint64_t epoch,
                     const std::vector<std::string> &members,
                     unsigned reps, const EpochView *announcedPrev)
{
    // Callers canonicalize and de-duplicate member lists before they
    // get here; a violation is a bug, not bad input.
    EpochView next;
    next.epoch = epoch;
    next.members = members;
    for (const std::string &m : members) {
        Endpoint ep;
        std::string err;
        if (!parseEndpoint(m, ep, err))
            fatal("dcgserved: epoch ", epoch,
                  " carries unparseable member '", m, "': ", err);
        next.nodeIdx.push_back(nodeIndexOf(ep));
    }
    next.ring = HashRing(members);

    EpochView ownPrev = std::move(curEp);
    curEp = std::move(next);
    prevEp = announcedPrev && announcedPrev->valid() ? *announcedPrev
                                                     : ownPrev;
    epochReps = std::max(reps, 1u);
    if (repl)
        repl->setEpochViews(curEp, prevEp, epochReps);
    inform("dcgserved: epoch ", curEp.epoch, " installed (",
           curEp.members.size(), " member(s), replication factor ",
           replicationFactor(), ")");
    startRebalance(ownPrev);
}

void
Server::startRebalance(const EpochView &ownPrev)
{
    // A newer epoch supersedes an unfinished rebalance: release its
    // parked epoch acks (the handoff read path covers whatever the
    // aborted push skipped) and rescan under the new view pair.
    if (rebal.active) {
        for (const ParkedResp &p : rebal.acks) {
            JsonValue resp = okResponse();
            resp.set("epoch", JsonValue::integer(rebal.epoch));
            respondParked(p, std::move(resp));
        }
        rebal.acks.clear();
    }
    rebal.queue.clear();
    rebal.epoch = curEp.epoch;

    // Only a node that held arcs under its own previous view has
    // records to push, and only a key's old primary pushes — one
    // pusher per key keeps the move at ~1/N of the store, not k/N.
    if (store && ownPrev.valid() &&
        ownPrev.hasMember(selfAddr)) {
        for (const std::string &key : store->keys()) {
            const auto ph = ownPrev.holders(key, epochReps);
            if (ph.empty() || ph.front() != selfIdx)
                continue;
            const auto ch = curEp.holders(key, epochReps);
            Rebalance::Item item;
            item.key = key;
            for (std::size_t t : ch)
                if (std::find(ph.begin(), ph.end(), t) == ph.end())
                    item.targets.push_back(t);
            if (item.targets.empty())
                continue;  // this arc did not move
            ++rebalArcsMoved;
            rebal.queue.push_back(std::move(item));
        }
    }

    rebal.active = !rebal.queue.empty() || rebal.inflight > 0;
    if (rebal.active)
        stepRebalance();
}

void
Server::stepRebalance()
{
    if (!rebal.active)
        return;
    while (rebal.inflight < kMaxRebalanceInflight &&
           !rebal.queue.empty()) {
        Rebalance::Item item = std::move(rebal.queue.front());
        rebal.queue.pop_front();
        RunResult r;
        if (!store->get(item.key, r))
            continue;  // evicted since the scan; handoff covers it
        const JsonValue req = replicateRequest(item.key, r);
        const std::size_t sz = req.dump().size();
        // Count the whole item in flight before issuing anything: a
        // completion that fires synchronously must not see the count
        // drain to zero while later targets are still unposted.
        rebal.inflight += item.targets.size();
        for (std::size_t t : item.targets) {
            rebalBytes += sz;
            pool->call(t, JsonValue(req), [this](PeerReply reply) {
                --rebal.inflight;
                if (!reply.transportOk ||
                    !reply.resp.get("ok").asBool(false))
                    ++rebalPushFailures;
                stepRebalance();
            });
        }
    }
    if (rebal.queue.empty() && rebal.inflight == 0)
        finishRebalance();
}

void
Server::finishRebalance()
{
    if (!rebal.active)
        return;
    rebal.active = false;
    for (const ParkedResp &p : rebal.acks) {
        JsonValue resp = okResponse();
        resp.set("epoch", JsonValue::integer(rebal.epoch));
        respondParked(p, std::move(resp));
    }
    rebal.acks.clear();
    if (adm.active && adm.epoch == rebal.epoch) {
        adm.localDone = true;
        maybeFinishAdmin();
    }
}

Server::ParkedResp
Server::park(const OpCall &c)
{
    ParkedResp p;
    p.connId = c.connId;
    p.since = std::chrono::steady_clock::now();
    if (c.req.has("rid")) {
        p.hasRid = true;
        p.rid = c.req.get("rid");
    }
    return p;
}

void
Server::respondParked(const ParkedResp &p, JsonValue resp)
{
    auto it = conns.find(p.connId);
    if (it == conns.end() || it->second.fd < 0)
        return;  // client went away; nothing to deliver
    stampVersion(resp, kProtocolVersion);
    if (p.hasRid)
        resp.set("rid", p.rid);
    it->second.out += resp.dump();
    it->second.out += '\n';
}

void
Server::handleEpoch(OpCall &c)
{
    const std::uint64_t e = c.req.get("epoch").asU64(0);
    const JsonValue &mj = c.req.get("members");
    if (e == 0 || !mj.isArray() || mj.items().empty()) {
        c.resp = errorResponse("bad_request",
                               "epoch needs a nonzero 'epoch' and a "
                               "nonempty 'members' array");
        return;
    }
    std::vector<std::string> members;
    for (const JsonValue &mv : mj.items()) {
        const std::string m = mv.asString();
        Endpoint ep;
        std::string err;
        if (!parseEndpoint(m, ep, err)) {
            c.resp = errorResponse("bad_request",
                                   "bad member '" + m + "': " + err);
            return;
        }
        members.push_back(ep.str());
    }
    // The ring treats duplicate names as a fatal construction error;
    // wire input must never reach it unchecked.
    std::vector<std::string> sorted = members;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) !=
        sorted.end()) {
        c.resp = errorResponse(
            "bad_request", "duplicate member in epoch announcement");
        return;
    }
    const unsigned reps = static_cast<unsigned>(
        c.req.get("replicas").asU64(epochReps));

    if (e < curEp.epoch) {
        c.resp = staleEpochResponse(curEp.epoch, curEp.members);
        return;
    }
    if (e == curEp.epoch) {
        // Idempotent re-announcement.
        c.resp = okResponse();
        c.resp.set("epoch", JsonValue::integer(curEp.epoch));
        return;
    }
    if (std::find(members.begin(), members.end(), selfAddr) ==
            members.end() &&
        !curEp.hasMember(selfAddr)) {
        c.resp = errorResponse("not_member",
                               "this node is in neither the announced "
                               "nor its current member list");
        return;
    }

    // The announced previous view tells a node that was not in it —
    // the joiner, above all — where the cluster kept records until
    // now; the handoff read leg routes by it. Unusable prev fields
    // just mean "no announced view", never a rejection.
    EpochView announcedPrev;
    announcedPrev.epoch = c.req.get("prev_epoch").asU64(0);
    const JsonValue &pj = c.req.get("prev_members");
    if (pj.isArray()) {
        bool parsed = true;
        for (const JsonValue &pv : pj.items()) {
            Endpoint pep;
            std::string perr;
            if (!parseEndpoint(pv.asString(), pep, perr)) {
                parsed = false;
                break;
            }
            announcedPrev.members.push_back(pep.str());
        }
        std::vector<std::string> ps = announcedPrev.members;
        std::sort(ps.begin(), ps.end());
        if (!parsed || announcedPrev.members.empty() ||
            std::adjacent_find(ps.begin(), ps.end()) != ps.end()) {
            announcedPrev.members.clear();
        } else {
            for (const std::string &m : announcedPrev.members) {
                Endpoint pep;
                std::string perr;
                parseEndpoint(m, pep, perr);  // re-parse: canonical
                announcedPrev.nodeIdx.push_back(nodeIndexOf(pep));
            }
            announcedPrev.ring = HashRing(announcedPrev.members);
        }
    }

    installEpoch(e, members, reps,
                 announcedPrev.valid() ? &announcedPrev : nullptr);
    if (rebal.active) {
        // The ack doubles as the quiesce signal: the coordinator's
        // admin response only completes once every member (this one
        // included) has drained its rebalance push queue.
        rebal.acks.push_back(park(c));
        c.deferred = true;
        return;
    }
    c.resp = okResponse();
    c.resp.set("epoch", JsonValue::integer(curEp.epoch));
}

void
Server::handleJoin(OpCall &c)
{
    const std::string node = c.req.get("node").asString();
    Endpoint ep;
    std::string err;
    if (!parseEndpoint(node, ep, err)) {
        c.resp = errorResponse("bad_request",
                               "bad node '" + node + "': " + err);
        return;
    }
    if (adm.active) {
        c.resp = errorResponse("change_in_progress",
                               "membership change in flight: " +
                                   adm.verb + " " + adm.node);
        return;
    }
    const std::string addr = ep.str();
    if (addr == selfAddr || curEp.hasMember(addr)) {
        c.resp = errorResponse(
            "already_member",
            "'" + addr + "' is already a cluster member");
        return;
    }

    const std::uint64_t e = curEp.epoch + 1;
    adm = AdminChange{};
    adm.active = true;
    adm.verb = "join";
    adm.node = addr;
    adm.epoch = e;
    adm.resp = park(c);
    c.deferred = true;

    std::vector<std::string> newMembers = curEp.members;
    newMembers.push_back(addr);

    const std::size_t jidx = nodeIndexOf(ep);
    // Tell the joiner FIRST: by the time anything routes a request to
    // it, it must know the ring. Its ack doubles as a liveness probe —
    // an unreachable joiner fails the join with no epoch change
    // anywhere.
    pool->call(
        jidx,
        epochRequest(e, newMembers, curEp.epoch, curEp.members,
                     epochReps),
        [this, e, newMembers](PeerReply reply) {
            if (!adm.active || adm.epoch != e)
                return;  // superseded
            if (!reply.transportOk) {
                adm.failed = true;
                adm.errs = "joiner unreachable: " + reply.error;
                adm.localDone = true;
                maybeFinishAdmin();
                return;
            }
            if (!reply.resp.get("ok").asBool(false)) {
                adm.failed = true;
                adm.errs = "joiner rejected the epoch (" +
                           reply.resp.get("error").asString() + ")";
                adm.localDone = true;
                maybeFinishAdmin();
                return;
            }
            // The old members hear about the epoch only after the
            // joiner acknowledged it — capture them before the install
            // replaces the view.
            std::vector<std::string> others;
            for (const std::string &m : curEp.members)
                if (m != selfAddr)
                    others.push_back(m);
            installEpoch(e, newMembers, epochReps);
            adm.localDone = !rebal.active;
            broadcastEpoch(others);
            maybeFinishAdmin();
        });
}

void
Server::handleLeave(OpCall &c)
{
    const std::string node = c.req.get("node").asString();
    Endpoint ep;
    std::string err;
    if (!parseEndpoint(node, ep, err)) {
        c.resp = errorResponse("bad_request",
                               "bad node '" + node + "': " + err);
        return;
    }
    if (adm.active) {
        c.resp = errorResponse("change_in_progress",
                               "membership change in flight: " +
                                   adm.verb + " " + adm.node);
        return;
    }
    const std::string addr = ep.str();
    if (!curEp.hasMember(addr)) {
        c.resp = errorResponse(
            "not_member", "'" + addr + "' is not a cluster member");
        return;
    }
    if (curEp.members.size() <= 1) {
        c.resp = errorResponse("bad_request",
                               "cannot remove the last member");
        return;
    }

    const std::uint64_t e = curEp.epoch + 1;
    adm = AdminChange{};
    adm.active = true;
    adm.verb = "leave";
    adm.node = addr;
    adm.epoch = e;
    adm.resp = park(c);
    c.deferred = true;

    // Everyone on the OLD list hears the new epoch — the leaver
    // included, so a live leaver stops owning arcs; a dead one merely
    // fails its notification, which a leave tolerates.
    std::vector<std::string> targets;
    for (const std::string &m : curEp.members)
        if (m != selfAddr)
            targets.push_back(m);
    std::vector<std::string> newMembers;
    for (const std::string &m : curEp.members)
        if (m != addr)
            newMembers.push_back(m);

    installEpoch(e, newMembers, epochReps);
    adm.localDone = !rebal.active;
    broadcastEpoch(targets);
    maybeFinishAdmin();
}

void
Server::broadcastEpoch(const std::vector<std::string> &targets)
{
    adm.pendingAcks = targets.size();
    const std::uint64_t e = adm.epoch;
    for (const std::string &m : targets) {
        Endpoint ep;
        std::string err;
        if (!parseEndpoint(m, ep, err)) {
            // Members are canonicalized before entering any view.
            --adm.pendingAcks;
            continue;
        }
        const std::size_t idx = nodeIndexOf(ep);
        pool->call(
            idx,
            epochRequest(e, curEp.members, prevEp.epoch,
                         prevEp.members, epochReps),
            [this, e, m](PeerReply reply) {
                if (!adm.active || adm.epoch != e)
                    return;  // superseded
                --adm.pendingAcks;
                const bool leaver =
                    adm.verb == "leave" && m == adm.node;
                if (!reply.transportOk) {
                    if (leaver) {
                        // A dead node is exactly what a leave removes.
                        warn("dcgserved: leaving node ", m,
                             " unreachable (", reply.error,
                             "); removed anyway");
                    } else {
                        adm.failed = true;
                        if (!adm.errs.empty())
                            adm.errs += "; ";
                        adm.errs += m + " unreachable: " + reply.error;
                    }
                } else if (!reply.resp.get("ok").asBool(false)) {
                    const std::string code =
                        reply.resp.get("error").asString();
                    if (code == "stale_epoch") {
                        // The peer is ahead of us. Fail this change
                        // and adopt its epoch once the response is
                        // delivered — highest epoch wins.
                        adm.failed = true;
                        if (!adm.errs.empty())
                            adm.errs += "; ";
                        adm.errs +=
                            m + " is on higher epoch " +
                            std::to_string(
                                reply.resp.get("epoch").asU64(0));
                        const std::uint64_t he =
                            reply.resp.get("epoch").asU64(0);
                        const JsonValue &hm =
                            reply.resp.get("members");
                        if (he > adm.higherEpoch && hm.isArray()) {
                            std::vector<std::string> hms;
                            bool parsed = true;
                            for (const JsonValue &hv :
                                 hm.items()) {
                                Endpoint hep;
                                std::string herr;
                                if (!parseEndpoint(hv.asString(), hep,
                                                   herr)) {
                                    parsed = false;
                                    break;
                                }
                                hms.push_back(hep.str());
                            }
                            std::vector<std::string> s2 = hms;
                            std::sort(s2.begin(), s2.end());
                            if (parsed && !hms.empty() &&
                                std::adjacent_find(s2.begin(),
                                                   s2.end()) ==
                                    s2.end()) {
                                adm.higherEpoch = he;
                                adm.higherMembers = std::move(hms);
                            }
                        }
                    } else if (leaver) {
                        warn("dcgserved: leaving node ", m,
                             " rejected the epoch (", code,
                             "); removed anyway");
                    } else {
                        adm.failed = true;
                        if (!adm.errs.empty())
                            adm.errs += "; ";
                        adm.errs +=
                            m + " rejected the epoch (" + code + ")";
                    }
                }
                maybeFinishAdmin();
            });
    }
}

void
Server::maybeFinishAdmin()
{
    if (!adm.active || adm.pendingAcks > 0 || !adm.localDone)
        return;
    JsonValue resp;
    if (adm.failed) {
        resp = errorResponse(adm.verb + "_failed", adm.errs);
    } else {
        resp = okResponse();
        resp.set("members", memberListJson(curEp.members));
        resp.set("rebalance_arcs_moved",
                 JsonValue::integer(rebalArcsMoved));
        resp.set("rebalance_bytes", JsonValue::integer(rebalBytes));
    }
    resp.set("epoch", JsonValue::integer(curEp.epoch));
    respondParked(adm.resp, std::move(resp));
    // Clear the change before any follow-up install: a peer that
    // reported a higher epoch wins, and installing it re-enters the
    // rebalance machinery.
    const std::uint64_t he = adm.higherEpoch;
    std::vector<std::string> hm = std::move(adm.higherMembers);
    adm = AdminChange{};
    if (he > curEp.epoch && !hm.empty())
        installEpoch(he, hm, epochReps);
}

JsonValue
Server::handleRing() const
{
    JsonValue resp = okResponse();
    resp.set("epoch", JsonValue::integer(curEp.epoch));
    resp.set("members", memberListJson(curEp.members));
    resp.set("self", JsonValue::string(selfAddr));
    resp.set("replicas",
             JsonValue::integer(std::uint64_t{replicationFactor()}));
    resp.set("rebalance_arcs_moved",
             JsonValue::integer(rebalArcsMoved));
    resp.set("rebalance_bytes", JsonValue::integer(rebalBytes));
    resp.set("rebalance_pending",
             JsonValue::integer(std::uint64_t{rebal.queue.size() +
                                              rebal.inflight}));
    resp.set("handoff_fetches",
             JsonValue::integer(repl ? repl->handoffFetches()
                                     : std::uint64_t{0}));
    resp.set("change_in_progress", JsonValue::boolean(adm.active));
    return resp;
}

void
Server::drainEvents()
{
    std::deque<Event> batch;
    {
        std::lock_guard<std::mutex> lk(evMutex);
        batch.swap(events);
    }
    for (Event &ev : batch)
        finishJob(ev);
}

void
Server::finishJob(Event &ev)
{
    failoverCount += ev.failovers;
    JsonValue resp;
    if (ev.failed) {
        ++forwardFailures;
        warn("dcgserved: ", ev.error);
        resp = errorResponse("forward_failed", ev.error);
    } else {
        if (ev.remote)
            ++jobsForwarded;
        resp = resultResponse(ev.result);
    }
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - ev.to.since)
            .count();
    latencySumUs += static_cast<std::uint64_t>(us);
    latencyMaxUs =
        std::max(latencyMaxUs, static_cast<std::uint64_t>(us));
    ++jobsCompleted;
    // Answered (or dropped, if the client went away): nothing of
    // this request survives the call.
    --requestsInflight;
    respondParked(ev.to, std::move(resp));
}

JsonValue
Server::statsJson() const
{
    std::size_t depth;
    {
        std::lock_guard<std::mutex> lk(qMutex);
        depth = pending.size();
    }
    JsonValue s = JsonValue::object();
    s.set("workers", JsonValue::integer(std::uint64_t{workerCount}));
    s.set("busy_workers",
          JsonValue::integer(std::uint64_t{
              busyWorkers.load(std::memory_order_acquire)}));
    s.set("queue_depth", JsonValue::integer(std::uint64_t{depth}));
    s.set("queue_capacity",
          JsonValue::integer(std::uint64_t{cfg.queueCapacity}));
    s.set("connections",
          JsonValue::integer(std::uint64_t{conns.size()}));
    s.set("jobs_submitted", JsonValue::integer(jobsSubmitted));
    s.set("jobs_completed", JsonValue::integer(jobsCompleted));
    s.set("requests_inflight", JsonValue::integer(requestsInflight));
    s.set("jobs_forwarded", JsonValue::integer(jobsForwarded));
    s.set("forward_failures", JsonValue::integer(forwardFailures));
    s.set("not_owner_replies", JsonValue::integer(notOwnerReplies));
    s.set("submits_rejected", JsonValue::integer(submitsRejected));
    s.set("bad_requests", JsonValue::integer(badRequests));
    s.set("mem_hits", JsonValue::integer(eng.cacheHits()));
    s.set("mem_misses", JsonValue::integer(eng.cacheMisses()));
    s.set("disk_hits", JsonValue::integer(eng.diskHits()));
    s.set("simulations", JsonValue::integer(eng.simulations()));
    s.set("cache_entries",
          JsonValue::integer(std::uint64_t{eng.cacheSize()}));
    s.set("cache_bytes", JsonValue::integer(eng.bytes()));
    if (store) {
        s.set("store_records",
              JsonValue::integer(std::uint64_t{store->entries()}));
        s.set("store_bytes", JsonValue::integer(store->bytes()));
        s.set("store_corrupt",
              JsonValue::integer(store->corruptRecords()));
        s.set("store_evicted",
              JsonValue::integer(store->evictedRecords()));
        s.set("store_compactions",
              JsonValue::integer(store->compactions()));
        s.set("replicas_stored",
              JsonValue::integer(store->replicaRecords()));
        s.set("store_dir", JsonValue::string(store->directory()));
    }
    s.set("latency_mean_us",
          JsonValue::number(jobsCompleted
                                ? static_cast<double>(latencySumUs) /
                                      static_cast<double>(jobsCompleted)
                                : 0.0));
    s.set("latency_max_us", JsonValue::integer(latencyMaxUs));
    s.set("protocol_version",
          JsonValue::integer(std::uint64_t{kProtocolVersion}));
    s.set("epoch", JsonValue::integer(curEp.epoch));
    s.set("ops", opCatalogJson());
    if (clustered()) {
        s.set("cluster_self", JsonValue::string(selfAddr));
        s.set("cluster_nodes",
              JsonValue::integer(std::uint64_t{curEp.members.size()}));
        s.set("cluster_members", memberListJson(curEp.members));
        s.set("failovers", JsonValue::integer(failoverCount));
        s.set("replicate_ops", JsonValue::integer(replicateOps));
        s.set("fetches_served", JsonValue::integer(fetchesServed));
        s.set("forwards_inflight",
              JsonValue::integer(inflightForwards));
        s.set("forwards_inflight_peak",
              JsonValue::integer(peakInflightForwards));
        s.set("fetches_inflight", JsonValue::integer(inflightFetches));
        s.set("fetches_inflight_peak",
              JsonValue::integer(peakInflightFetches));
        s.set("rebalance_arcs_moved",
              JsonValue::integer(rebalArcsMoved));
        s.set("rebalance_bytes", JsonValue::integer(rebalBytes));
        s.set("rebalance_pending",
              JsonValue::integer(std::uint64_t{rebal.queue.size() +
                                               rebal.inflight}));
        s.set("rebalance_push_failures",
              JsonValue::integer(rebalPushFailures));
    }
    s.set("peer_requests", JsonValue::integer(pool->requestsSent()));
    s.set("peer_link_deaths", JsonValue::integer(pool->linkDeaths()));
    s.set("peer_reconnects", JsonValue::integer(pool->reconnects()));
    if (repl) {
        s.set("replication_factor",
              JsonValue::integer(std::uint64_t{repl->factor()}));
        s.set("replicas_written", JsonValue::integer(repl->pushes()));
        s.set("replica_push_failures",
              JsonValue::integer(repl->pushFailures()));
        s.set("replica_misses",
              JsonValue::integer(repl->replicaMisses()));
        s.set("read_repairs", JsonValue::integer(repl->readRepairs()));
        s.set("handoff_fetches",
              JsonValue::integer(repl->handoffFetches()));
    }
    s.set("draining",
          JsonValue::boolean(stopFlag.load(std::memory_order_acquire)));
    return s;
}

} // namespace dcg::serve
