#include "serve/peerlink.hh"

#include <fcntl.h>
#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/log.hh"
#include "serve/netio.hh"
#include "serve/protocol.hh"

namespace dcg::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kDefaultConnectTimeoutMs = 10000;
constexpr unsigned kBackoffStartMs = 50;
constexpr unsigned kBackoffCapMs = 2000;

/** A partial response line longer than this kills the link: no
 *  legitimate single result approaches it, a stuck peer could grow
 *  the buffer without bound. */
constexpr std::size_t kMaxResponseLineBytes = 16u << 20;

int
msUntil(Clock::time_point when, Clock::time_point now)
{
    if (when <= now)
        return 0;
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        when - now);
    return static_cast<int>(
        std::min<std::int64_t>(ms.count() + 1, 3600 * 1000));
}

void
foldHint(int &hint, int candidate)
{
    if (candidate >= 0 && (hint < 0 || candidate < hint))
        hint = candidate;
}

} // namespace

PeerPool::PeerPool(std::vector<Endpoint> peers, Options options)
    : endpoints(std::move(peers)), opts(std::move(options))
{
    links.resize(endpoints.size());
    for (std::size_t i = 0; i < endpoints.size(); ++i)
        links[i].ep = endpoints[i];
}

std::size_t
PeerPool::addPeer(const Endpoint &ep)
{
    for (std::size_t i = 0; i < endpoints.size(); ++i)
        if (endpoints[i] == ep)
            return i;
    endpoints.push_back(ep);
    links.emplace_back();
    links.back().ep = ep;
    return links.size() - 1;
}

PeerPool::~PeerPool()
{
    // Qualified: this is PeerPool::shutdown, not shutdown(2).
    this->shutdown();
}

unsigned
PeerPool::connectTimeoutMs() const
{
    if (opts.peerTimeoutMs)
        return opts.peerTimeoutMs;
    return kDefaultConnectTimeoutMs;
}

void
PeerPool::wakeOwner()
{
    if (opts.wake)
        opts.wake();
}

void
PeerPool::call(std::size_t idx, JsonValue req, PeerCompletion cb)
{
    if (idx >= links.size()) {
        cb(PeerReply{false, JsonValue::null(),
                     "peer index out of range"});
        return;
    }
    if (closed_.load(std::memory_order_acquire)) {
        cb(PeerReply{false, JsonValue::null(),
                     "peer pool is shut down"});
        return;
    }

    Link &link = links[idx];
    const std::uint64_t rid = nextRid++;
    requests_.fetch_add(1, std::memory_order_relaxed);

    stampVersion(req, kProtocolVersion);
    req.set("rid", JsonValue::integer(rid));

    Pending p;
    p.cb = std::move(cb);
    if (opts.peerTimeoutMs) {
        p.hasDeadline = true;
        p.deadline = Clock::now() +
                     std::chrono::milliseconds(opts.peerTimeoutMs);
    }

    std::string line = req.dump();
    line += '\n';

    link.pending.emplace(rid, std::move(p));

    if (link.state == Link::State::Up) {
        link.out += line;
        flushOut(link);
    } else {
        link.waitq.push_back(Link::Queued{rid, std::move(line)});
        maybeConnect(link);
    }
}

void
PeerPool::connectAsync(std::size_t idx, PeerCompletion cb)
{
    if (idx >= links.size()) {
        cb(PeerReply{false, JsonValue::null(),
                     "peer index out of range"});
        return;
    }
    if (closed_.load(std::memory_order_acquire)) {
        cb(PeerReply{false, JsonValue::null(),
                     "peer pool is shut down"});
        return;
    }
    Link &link = links[idx];
    if (link.state == Link::State::Up) {
        cb(PeerReply{true, okResponse(), ""});
        return;
    }
    link.connectWaiters.push_back(std::move(cb));
    if (link.state == Link::State::Down)
        maybeConnect(link);
}

void
PeerPool::schedule(unsigned delayMs, std::function<void()> fn)
{
    timers.push_back(
        Timer{Clock::now() + std::chrono::milliseconds(delayMs),
              std::move(fn)});
}

void
PeerPool::post(std::size_t idx, JsonValue req, PeerCompletion cb)
{
    {
        std::lock_guard<std::mutex> lock(injectMutex);
        if (!closed_.load(std::memory_order_acquire)) {
            injected.push_back(
                Injected{idx, std::move(req), std::move(cb), false});
            cb = nullptr;
        }
    }
    if (cb) {
        cb(PeerReply{false, JsonValue::null(),
                     "peer pool is shut down"});
        return;
    }
    wakeOwner();
}

namespace {

struct SyncWaiter
{
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    PeerReply reply;
};

PeerCompletion
syncCompletion(const std::shared_ptr<SyncWaiter> &w)
{
    return [w](PeerReply r) {
        std::lock_guard<std::mutex> lock(w->m);
        w->reply = std::move(r);
        w->done = true;
        w->cv.notify_all();
    };
}

} // namespace

bool
PeerPool::callSync(std::size_t idx, const JsonValue &req,
                   JsonValue &resp, std::string &err)
{
    auto w = std::make_shared<SyncWaiter>();
    post(idx, req, syncCompletion(w));
    std::unique_lock<std::mutex> lock(w->m);
    w->cv.wait(lock, [&] { return w->done; });
    if (!w->reply.transportOk) {
        err = w->reply.error;
        return false;
    }
    resp = std::move(w->reply.resp);
    return true;
}

bool
PeerPool::connectSync(std::size_t idx, std::string &err)
{
    auto w = std::make_shared<SyncWaiter>();
    {
        std::lock_guard<std::mutex> lock(injectMutex);
        if (!closed_.load(std::memory_order_acquire)) {
            injected.push_back(Injected{idx, JsonValue::null(),
                                        syncCompletion(w), true});
        } else {
            err = "peer pool is shut down";
            return false;
        }
    }
    wakeOwner();
    std::unique_lock<std::mutex> lock(w->m);
    w->cv.wait(lock, [&] { return w->done; });
    if (!w->reply.transportOk) {
        err = w->reply.error;
        return false;
    }
    return true;
}

void
PeerPool::maybeConnect(Link &link)
{
    if (link.state != Link::State::Down)
        return;
    if (link.retryArmed && Clock::now() < link.retryAt)
        return;  // runDue() fires the retry when the backoff expires
    startConnect(link);
}

void
PeerPool::startConnect(Link &link)
{
    link.retryArmed = false;

    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    const std::string port = std::to_string(link.ep.port);
    const int rc = getaddrinfo(link.ep.host.c_str(), port.c_str(),
                               &hints, &res);
    if (rc != 0) {
        failConnect(link, std::string("cannot resolve: ") +
                              gai_strerror(rc));
        return;
    }

    int fd = -1;
    int lastErrno = 0;
    bool inProgress = false;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = socket(ai->ai_family,
                    ai->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                    ai->ai_protocol);
        if (fd < 0) {
            lastErrno = errno;
            continue;
        }
        if (net::connectRetry(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        if (errno == EINPROGRESS) {
            inProgress = true;
            break;
        }
        lastErrno = errno;
        close(fd);
        fd = -1;
    }
    freeaddrinfo(res);

    if (fd < 0) {
        failConnect(link, std::string("cannot connect: ") +
                              std::strerror(lastErrno));
        return;
    }

    link.fd = fd;
    if (inProgress) {
        link.state = Link::State::Connecting;
        link.connectDeadline =
            Clock::now() + std::chrono::milliseconds(connectTimeoutMs());
    } else {
        onConnected(link);
    }
}

void
PeerPool::onConnected(Link &link)
{
    link.state = Link::State::Up;
    link.backoffMs = 0;
    link.retryArmed = false;
    if (link.everConnected)
        reconnects_.fetch_add(1, std::memory_order_relaxed);
    link.everConnected = true;

    while (!link.waitq.empty()) {
        link.out += link.waitq.front().line;
        link.waitq.pop_front();
    }

    std::vector<PeerCompletion> waiters;
    waiters.swap(link.connectWaiters);
    for (PeerCompletion &cb : waiters)
        cb(PeerReply{true, okResponse(), ""});

    flushOut(link);
}

void
PeerPool::armBackoff(Link &link)
{
    link.backoffMs = link.backoffMs
                         ? std::min(link.backoffMs * 2, kBackoffCapMs)
                         : kBackoffStartMs;
    link.retryArmed = true;
    link.retryAt = Clock::now() +
                   std::chrono::milliseconds(link.backoffMs);
}

void
PeerPool::failAllPending(Link &link, const std::string &err)
{
    std::vector<PeerCompletion> cbs;
    cbs.reserve(link.pending.size());
    for (auto &[rid, p] : link.pending)
        cbs.push_back(std::move(p.cb));
    link.pending.clear();
    link.waitq.clear();
    for (PeerCompletion &cb : cbs)
        cb(PeerReply{false, JsonValue::null(), err});
}

void
PeerPool::failConnect(Link &link, const std::string &why)
{
    if (link.fd >= 0) {
        close(link.fd);
        link.fd = -1;
    }
    link.state = Link::State::Down;
    armBackoff(link);

    const std::string err = link.ep.str() + ": " + why;
    std::vector<PeerCompletion> waiters;
    waiters.swap(link.connectWaiters);
    failAllPending(link, err);
    for (PeerCompletion &cb : waiters)
        cb(PeerReply{false, JsonValue::null(), err});
}

void
PeerPool::linkDeath(Link &link, const std::string &why)
{
    linkDeaths_.fetch_add(1, std::memory_order_relaxed);
    if (link.fd >= 0) {
        close(link.fd);
        link.fd = -1;
    }
    link.state = Link::State::Down;
    link.in.clear();
    link.out.clear();
    armBackoff(link);
    failAllPending(link,
                   "link to " + link.ep.str() + " died: " + why);
}

void
PeerPool::flushOut(Link &link)
{
    while (!link.out.empty()) {
        const ssize_t w = net::sendRetry(link.fd, link.out.data(),
                                         link.out.size(), MSG_NOSIGNAL);
        if (w > 0) {
            link.out.erase(0, static_cast<std::size_t>(w));
            continue;
        }
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        linkDeath(link, w == 0 ? "zero-length send"
                               : std::strerror(errno));
        return;
    }
}

void
PeerPool::readLink(Link &link)
{
    char buf[65536];
    for (;;) {
        const ssize_t n = net::recvRetry(link.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            link.in.append(buf, static_cast<std::size_t>(n));
            // Peel complete lines; handleResponse() may run callbacks
            // that touch this link again, so keep `in` consistent
            // before each dispatch.
            for (;;) {
                const std::size_t nl = link.in.find('\n');
                if (nl == std::string::npos)
                    break;
                std::string line = link.in.substr(0, nl);
                link.in.erase(0, nl + 1);
                handleResponse(link, line);
                if (link.fd < 0)
                    return;  // a callback or a bad frame closed us
            }
            if (link.in.size() > kMaxResponseLineBytes) {
                linkDeath(link, "oversized response line");
                return;
            }
            continue;
        }
        if (n == 0) {
            linkDeath(link, "peer closed the connection");
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        linkDeath(link, std::strerror(errno));
        return;
    }
}

void
PeerPool::handleResponse(Link &link, const std::string &line)
{
    JsonValue resp;
    std::string err;
    if (!JsonValue::parse(line, resp, err) || !resp.isObject()) {
        linkDeath(link, "malformed response: " + err);
        return;
    }

    if (!resp.has("rid")) {
        // Every response echoes its request's rid; one without it
        // cannot be matched to anything in flight.
        linkDeath(link, "response without a rid");
        return;
    }
    const std::uint64_t rid = resp.get("rid").asU64(0);
    auto it = link.pending.find(rid);
    if (it == link.pending.end())
        return;  // deadline already failed it; drop the straggler
    PeerCompletion cb = std::move(it->second.cb);
    link.pending.erase(it);
    cb(PeerReply{true, std::move(resp), ""});
}

void
PeerPool::appendPollFds(std::vector<pollfd> &fds) const
{
    for (const Link &link : links) {
        if (link.fd < 0)
            continue;
        pollfd p{};
        p.fd = link.fd;
        p.events = POLLIN;
        if (link.state == Link::State::Connecting || !link.out.empty())
            p.events |= POLLOUT;
        fds.push_back(p);
    }
}

void
PeerPool::dispatch(const pollfd *fds, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const pollfd &p = fds[i];
        if (p.revents == 0)
            continue;
        Link *link = nullptr;
        for (Link &l : links) {
            if (l.fd == p.fd) {
                link = &l;
                break;
            }
        }
        if (!link)
            continue;

        if (link->state == Link::State::Connecting) {
            int soerr = 0;
            socklen_t len = sizeof(soerr);
            if (getsockopt(link->fd, SOL_SOCKET, SO_ERROR, &soerr,
                           &len) != 0)
                soerr = errno;
            if (soerr == 0)
                onConnected(*link);
            else
                failConnect(*link, std::string("cannot connect: ") +
                                       std::strerror(soerr));
            continue;
        }

        if (p.revents & POLLIN)
            readLink(*link);
        if (link->fd >= 0 && (p.revents & POLLOUT))
            flushOut(*link);
        if (link->fd >= 0 && (p.revents & (POLLERR | POLLNVAL)))
            linkDeath(*link, "socket error");
    }
}

void
PeerPool::runDue()
{
    // Injected work first: a post() may create the very pending
    // entries whose deadlines the sweep below tracks.
    std::vector<Injected> batch;
    {
        std::lock_guard<std::mutex> lock(injectMutex);
        batch.swap(injected);
    }
    for (Injected &inj : batch) {
        if (inj.connectProbe)
            connectAsync(inj.idx, std::move(inj.cb));
        else
            call(inj.idx, std::move(inj.req), std::move(inj.cb));
    }

    const auto now = Clock::now();

    if (!timers.empty()) {
        std::vector<std::function<void()>> due;
        for (std::size_t i = 0; i < timers.size();) {
            if (timers[i].when <= now) {
                due.push_back(std::move(timers[i].fn));
                timers[i] = std::move(timers.back());
                timers.pop_back();
            } else {
                ++i;
            }
        }
        for (auto &fn : due)
            fn();
    }

    // Index-based: the failure callbacks below may addPeer(), growing
    // the table mid-sweep (new links are idle, so visiting or missing
    // them this pass is equally correct).
    for (std::size_t li = 0; li < links.size(); ++li) {
        Link &link = links[li];
        if (link.state == Link::State::Connecting &&
            now >= link.connectDeadline) {
            failConnect(link, "connect timed out");
            continue;
        }
        if (link.state == Link::State::Down && link.retryArmed &&
            now >= link.retryAt &&
            (!link.waitq.empty() || !link.connectWaiters.empty())) {
            startConnect(link);
            continue;
        }
        if (link.pending.empty())
            continue;
        std::vector<PeerCompletion> expired;
        for (auto it = link.pending.begin();
             it != link.pending.end();) {
            if (it->second.hasDeadline && now >= it->second.deadline) {
                expired.push_back(std::move(it->second.cb));
                it = link.pending.erase(it);
            } else {
                ++it;
            }
        }
        if (expired.empty())
            continue;
        const std::string err =
            "request to " + link.ep.str() + " timed out after " +
            std::to_string(opts.peerTimeoutMs) + "ms";
        for (PeerCompletion &cb : expired)
            cb(PeerReply{false, JsonValue::null(), err});
    }
}

int
PeerPool::timeoutHintMs() const
{
    const auto now = Clock::now();
    int hint = -1;
    for (const Timer &t : timers)
        foldHint(hint, msUntil(t.when, now));
    for (const Link &link : links) {
        if (link.state == Link::State::Connecting)
            foldHint(hint, msUntil(link.connectDeadline, now));
        if (link.state == Link::State::Down && link.retryArmed &&
            (!link.waitq.empty() || !link.connectWaiters.empty()))
            foldHint(hint, msUntil(link.retryAt, now));
        for (const auto &[rid, p] : link.pending)
            if (p.hasDeadline)
                foldHint(hint, msUntil(p.deadline, now));
    }
    return hint;
}

bool
PeerPool::idle() const
{
    for (const Link &link : links) {
        if (!link.pending.empty() || !link.waitq.empty() ||
            !link.connectWaiters.empty())
            return false;
    }
    if (!timers.empty())
        return false;
    std::lock_guard<std::mutex> lock(injectMutex);
    return injected.empty();
}

void
PeerPool::shutdown()
{
    if (shutdownDone)
        return;
    shutdownDone = true;
    closed_.store(true, std::memory_order_release);

    timers.clear();
    for (std::size_t li = 0; li < links.size(); ++li) {
        Link &link = links[li];
        std::vector<PeerCompletion> waiters;
        waiters.swap(link.connectWaiters);
        failAllPending(link, "peer pool is shut down");
        for (PeerCompletion &cb : waiters)
            cb(PeerReply{false, JsonValue::null(),
                         "peer pool is shut down"});
        if (link.fd >= 0) {
            close(link.fd);
            link.fd = -1;
        }
        link.state = Link::State::Down;
        link.in.clear();
        link.out.clear();
    }

    std::vector<Injected> orphaned;
    {
        std::lock_guard<std::mutex> lock(injectMutex);
        orphaned.swap(injected);
    }
    for (Injected &inj : orphaned)
        inj.cb(PeerReply{false, JsonValue::null(),
                         "peer pool is shut down"});
}

LinkLoop::LinkLoop(std::vector<Endpoint> peers, unsigned peerTimeoutMs)
{
    if (pipe(wakePipe) != 0)
        fatal("LinkLoop: cannot create wake pipe: ",
              std::strerror(errno));
    for (int fd : wakePipe)
        fcntl(fd, F_SETFL, O_NONBLOCK);

    PeerPool::Options opts;
    opts.peerTimeoutMs = peerTimeoutMs;
    const int wfd = wakePipe[1];
    opts.wake = [wfd] {
        const char b = 1;
        (void)net::writeRetry(wfd, &b, 1);
    };
    pool_ = std::make_unique<PeerPool>(std::move(peers),
                                       std::move(opts));
}

LinkLoop::~LinkLoop()
{
    stop();
    for (int &fd : wakePipe) {
        if (fd >= 0) {
            close(fd);
            fd = -1;
        }
    }
}

void
LinkLoop::start()
{
    if (thread.joinable())
        return;
    // Ownership handoff: the spawned thread IS the pool's owner.
    thread = std::thread([this] { loop(); });  // dcglint:allow(thread-ownership)
}

void
LinkLoop::stop()
{
    if (!thread.joinable()) {
        // Never started: the caller still owns the pool.
        pool_->shutdown();  // dcglint:allow(thread-ownership)
        return;
    }
    stopFlag.store(true, std::memory_order_release);
    const char b = 1;
    (void)net::writeRetry(wakePipe[1], &b, 1);
    thread.join();
    // Owner thread joined: ownership reverts to the stopping thread.
    pool_->shutdown();
}

void
LinkLoop::loop()
{
    std::vector<pollfd> fds;
    while (!stopFlag.load(std::memory_order_acquire)) {
        fds.clear();
        pollfd wp{};
        wp.fd = wakePipe[0];
        wp.events = POLLIN;
        fds.push_back(wp);
        pool_->appendPollFds(fds);

        const int timeout = pool_->timeoutHintMs();
        const int pr = net::pollRetry(fds.data(), fds.size(), timeout);
        if (pr < 0)
            fatal("LinkLoop: poll failed: ", std::strerror(errno));

        if (fds[0].revents & POLLIN) {
            char buf[256];
            while (net::readRetry(wakePipe[0], buf, sizeof(buf)) > 0) {
            }
        }
        pool_->dispatch(fds.data() + 1, fds.size() - 1);
        pool_->runDue();
    }
}

} // namespace dcg::serve
