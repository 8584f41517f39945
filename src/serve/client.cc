#include "serve/client.hh"

#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <set>

#include "common/log.hh"
#include "exp/job.hh"
#include "serve/netio.hh"

namespace dcg::serve {

namespace {

/** Give up on a persistently "busy" server after this many retries. */
constexpr unsigned kMaxBusyRetries = 600;

/** Jobs in flight at once during a pipelined runJobs() fan-out. */
constexpr std::size_t kPipelineWindow = 128;

/** Route key for a validated spec: the engine's content address. */
std::string
specRouteKey(const JobSpec &spec)
{
    return exp::jobKey(spec.toJob());
}

/**
 * A response whose failure is the *node's* fault, not the request's:
 * worth retrying on another replica candidate. "draining" is a node on
 * its way out; "forward_failed" is a node that could not reach the
 * key's owner.
 */
bool
failedOverable(const std::string &code)
{
    return code == "draining" || code == "forward_failed";
}

} // namespace

// ---------------------------------------------------------------- //
// Connection                                                       //
// ---------------------------------------------------------------- //

Connection::~Connection()
{
    shut();
}

void
Connection::shut()
{
    if (fd >= 0) {
        close(fd);
        fd = -1;
    }
    inBuf.clear();
}

bool
Connection::open(const Endpoint &ep, std::string &err,
                 unsigned timeoutMs)
{
    shut();
    peer = ep.str();

    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    const std::string port = std::to_string(ep.port);
    const int rc = getaddrinfo(ep.host.c_str(), port.c_str(), &hints,
                               &res);
    if (rc != 0) {
        err = "cannot resolve '" + peer + "': " + gai_strerror(rc);
        return false;
    }

    int last_errno = 0;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            last_errno = errno;
            continue;
        }
        if (timeoutMs == 0) {
            if (net::connectRetry(fd, ai->ai_addr,
                                  ai->ai_addrlen) == 0)
                break;
            last_errno = errno;
            close(fd);
            fd = -1;
            continue;
        }

        // Bounded connect: flip to non-blocking, poll for the
        // three-way handshake, then restore blocking mode (recv/send
        // are bounded separately via SO_RCVTIMEO/SO_SNDTIMEO below).
        bool connected = false;
        const int flags = fcntl(fd, F_GETFL, 0);
        if (flags >= 0 &&
            fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0) {
            if (net::connectRetry(fd, ai->ai_addr,
                                  ai->ai_addrlen) == 0) {
                connected = true;
            } else if (errno == EINPROGRESS) {
                pollfd pfd{};
                pfd.fd = fd;
                pfd.events = POLLOUT;
                const int pr = net::pollRetry(
                    &pfd, 1, static_cast<int>(timeoutMs));
                if (pr == 1) {
                    int soerr = 0;
                    socklen_t len = sizeof(soerr);
                    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr,
                                   &len) == 0 &&
                        soerr == 0)
                        connected = true;
                    else
                        last_errno = soerr ? soerr : errno;
                } else {
                    last_errno = pr == 0 ? ETIMEDOUT : errno;
                }
            } else {
                last_errno = errno;
            }
            if (connected && fcntl(fd, F_SETFL, flags) != 0) {
                last_errno = errno;
                connected = false;
            }
        } else {
            last_errno = errno;
        }
        if (connected)
            break;
        close(fd);
        fd = -1;
    }
    freeaddrinfo(res);
    if (fd < 0) {
        err = "cannot connect to " + peer + ": " +
              std::strerror(last_errno);
        return false;
    }

    if (timeoutMs) {
        timeval tv{};
        tv.tv_sec = timeoutMs / 1000;
        tv.tv_usec = static_cast<long>(timeoutMs % 1000) * 1000;
        if (setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv,
                       sizeof(tv)) != 0 ||
            setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv,
                       sizeof(tv)) != 0) {
            err = "cannot arm timeout on " + peer + ": " +
                  std::strerror(errno);
            shut();
            return false;
        }
    }
    return true;
}

bool
Connection::sendAll(const std::string &line, std::string &err)
{
    const std::size_t sent =
        net::sendAllRetry(fd, line.data(), line.size());
    if (sent == line.size())
        return true;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
        err = "timeout sending request to " + peer;
        return false;
    }
    err = "cannot send request to " + peer + ": " +
          std::strerror(errno);
    return false;
}

bool
Connection::recvLine(std::string &line, std::string &err)
{
    while (true) {
        const std::size_t nl = inBuf.find('\n');
        if (nl != std::string::npos) {
            line = inBuf.substr(0, nl);
            inBuf.erase(0, nl + 1);
            return true;
        }
        char buf[4096];
        const ssize_t n = net::recvRetry(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            inBuf.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            err = "timeout awaiting a response from " + peer;
            return false;
        }
        err = "connection to " + peer +
              (n == 0 ? " closed" : " failed") +
              " while awaiting a response";
        return false;
    }
}

bool
Connection::roundTrip(const JsonValue &req, JsonValue &resp,
                      std::string &err)
{
    if (fd < 0) {
        err = "connection to " + peer + " is not open";
        return false;
    }
    std::string line = req.dump();
    line += '\n';
    if (!sendAll(line, err)) {
        shut();
        return false;
    }
    std::string reply;
    if (!recvLine(reply, err)) {
        shut();
        return false;
    }
    if (!JsonValue::parse(reply, resp, err) || !resp.isObject()) {
        err = "malformed response from " + peer + ": " + err;
        shut();
        return false;
    }
    return true;
}

// ---------------------------------------------------------------- //
// ClusterClient                                                    //
// ---------------------------------------------------------------- //

ClusterClient::ClusterClient(std::vector<Endpoint> endpoints,
                             unsigned replicaCount, unsigned timeout)
    : eps(std::move(endpoints)), replicas(replicaCount),
      timeoutMs(timeout)
{
    if (eps.empty())
        fatal("client: empty server endpoint list");
    ring = HashRing(endpointStrings(eps));
}

ClusterClient::~ClusterClient()
{
    if (links)
        links->stop();
}

PeerPool &
ClusterClient::pool()
{
    if (!links)
        links = std::make_unique<LinkLoop>(eps, timeoutMs);
    if (!links->started())
        links->start();
    return links->pool();
}

void
ClusterClient::connect()
{
    PeerPool &p = pool();
    std::size_t up = 0;
    for (std::size_t i = 0; i < eps.size(); ++i) {
        std::string err;
        if (p.connectSync(i, err)) {
            ++up;
            continue;
        }
        // With failover available a down node is survivable — the
        // ring still names live candidates for every key.
        if (replicas > 1 && eps.size() > 1)
            warn("client: ", err, " (will fail over)");
        else
            fatal(err);
    }
    if (up == 0)
        fatal("client: no server endpoint is reachable");
}

std::uint64_t
ClusterClient::failovers() const
{
    std::lock_guard<std::mutex> lock(routeMutex);
    return failoverCount;
}

std::uint64_t
ClusterClient::readRepairs() const
{
    std::lock_guard<std::mutex> lock(routeMutex);
    return readRepairCount;
}

std::size_t
ClusterClient::nodeFor(const std::string &key) const
{
    if (key.empty() || eps.size() == 1)
        return 0;
    const std::size_t pos = routePosOf(key);
    if (pos == 0)
        return ring.ownerIndex(key);
    return ring.ownerIndices(key, eps.size())[pos];
}

std::size_t
ClusterClient::routePosOf(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(routeMutex);
    const auto it = routePos.find(key);
    return it == routePos.end() ? 0 : it->second;
}

bool
ClusterClient::advanceRoute(const std::string &routeKey)
{
    if (replicas <= 1 || routeKey.empty() || eps.size() <= 1)
        return false;
    std::lock_guard<std::mutex> lock(routeMutex);
    std::size_t &pos = routePos[routeKey];
    if (pos + 1 >= eps.size())
        return false;
    ++pos;
    ++failoverCount;
    return true;
}

JsonValue
ClusterClient::roundTrip(const JsonValue &req,
                         const std::string &routeKey)
{
    // The link layer stamps the protocol version and request id.
    for (;;) {
        JsonValue resp;
        std::string err;
        if (pool().callSync(nodeFor(routeKey), req, resp, err))
            return resp;
        if (!advanceRoute(routeKey))
            fatal(err);
    }
}

JsonValue
ClusterClient::admin(const std::string &verb, const JsonValue &args)
{
    JsonValue req = args.isObject() ? args : JsonValue::object();
    req.set("op", JsonValue::string(verb));
    return roundTrip(req);
}

JsonValue
ClusterClient::join(const std::string &node)
{
    JsonValue args = JsonValue::object();
    args.set("node", JsonValue::string(node));
    return admin("join", args);
}

JsonValue
ClusterClient::leave(const std::string &node)
{
    JsonValue args = JsonValue::object();
    args.set("node", JsonValue::string(node));
    return admin("leave", args);
}

JsonValue
ClusterClient::ringInfo()
{
    return admin("ring");
}

std::vector<RunResult>
ClusterClient::runJobs(const std::vector<JobSpec> &specs)
{
    const std::size_t n = specs.size();
    if (n == 0)
        return {};

    /** One pipelined job's progress, guarded by Board::m. */
    struct JobSt
    {
        std::string key;
        JsonValue resp = JsonValue::null();  ///< done response
        unsigned busy = 0;
    };

    /** The shared scoreboard the link thread and this thread meet
     *  on. shared_ptr: completions must outlive early unwinding. */
    struct Board
    {
        std::mutex m;
        std::condition_variable cv;
        std::vector<JobSt> jobs;
        std::size_t next = 0;     ///< first job not yet launched
        std::size_t live = 0;     ///< launched, not yet settled
        std::size_t repairs = 0;  ///< read-repair pushes in flight
        bool failed = false;
        std::string failMsg;
    };

    auto bd = std::make_shared<Board>();
    bd->jobs.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        bd->jobs[i].key = specRouteKey(specs[i]);

    PeerPool &p = pool();

    // The launcher and the completion handler call each other
    // (failover resubmits, busy retries, window refills), so the
    // launcher lives behind a shared function object. The self-
    // reference cycle is broken explicitly before returning.
    auto launch = std::make_shared<std::function<void(std::size_t)>>();

    *launch = [this, bd, &p, &specs, launch](std::size_t i) {
        std::size_t idx;
        {
            std::lock_guard<std::mutex> lk(bd->m);
            if (bd->failed) {
                // The grid is already doomed: settle without a
                // result so the caller's drain can finish.
                --bd->live;
                bd->cv.notify_all();
                return;
            }
            idx = nodeFor(bd->jobs[i].key);
        }

        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::string("submit"));
        req.set("job", specs[i].toJson());

        p.post(idx, std::move(req),
               [this, bd, &p, launch, i](PeerReply r) {
            std::unique_lock<std::mutex> lk(bd->m);
            JobSt &job = bd->jobs[i];

            const auto fail = [&](std::string msg) {
                if (!bd->failed) {
                    bd->failed = true;
                    bd->failMsg = std::move(msg);
                }
                --bd->live;
                bd->cv.notify_all();
            };

            if (bd->failed) {
                --bd->live;
                bd->cv.notify_all();
                return;
            }

            if (!r.transportOk) {
                if (advanceRoute(job.key)) {
                    lk.unlock();
                    (*launch)(i);
                    return;
                }
                fail("job " + std::to_string(i + 1) + ": " + r.error);
                return;
            }

            if (r.resp.get("ok").asBool(false)) {
                job.resp = std::move(r.resp);

                // Served by a failover candidate: push the record
                // back to the primary (client-driven read-repair),
                // awaited before runJobs() returns.
                bool repair = false;
                JsonValue push;
                std::size_t primary = 0;
                if (replicas > 1 && routePosOf(job.key) > 0) {
                    push = JsonValue::object();
                    push.set("op", JsonValue::string("replicate"));
                    push.set("key", JsonValue::string(job.key));
                    push.set("result", job.resp.get("result"));
                    primary = ring.ownerIndex(job.key);
                    repair = true;
                    ++bd->repairs;
                }

                --bd->live;
                bool hasNext = false;
                std::size_t next = 0;
                if (bd->next < bd->jobs.size()) {
                    next = bd->next++;
                    ++bd->live;
                    hasNext = true;
                }
                bd->cv.notify_all();
                lk.unlock();

                if (repair)
                    p.post(primary, std::move(push),
                           [this, bd](PeerReply rr) {
                        std::lock_guard<std::mutex> g(bd->m);
                        if (rr.transportOk &&
                            rr.resp.get("ok").asBool(false)) {
                            std::lock_guard<std::mutex> rl(routeMutex);
                            ++readRepairCount;
                        }
                        --bd->repairs;
                        bd->cv.notify_all();
                    });
                if (hasNext)
                    (*launch)(next);
                return;
            }

            const std::string code = r.resp.get("error").asString();
            if (code == "busy") {
                if (++job.busy >= kMaxBusyRetries) {
                    fail("server stayed busy after " +
                         std::to_string(kMaxBusyRetries) +
                         " retries");
                    return;
                }
                const auto delay =
                    r.resp.get("retry_after_ms").asU64(250);
                lk.unlock();
                // Completions run on the link thread, which owns the
                // pool — the owner-thread schedule() is safe here.
                p.schedule(
                    static_cast<unsigned>(delay ? delay : 250),
                    [launch, i] { (*launch)(i); });
                return;
            }
            if (failedOverable(code) && advanceRoute(job.key)) {
                lk.unlock();
                (*launch)(i);
                return;
            }
            fail("server failed job " + std::to_string(i + 1) + " (" +
                 code + "): " + r.resp.get("detail").asString());
        });
    };

    // Prime the window, then let completions keep it full.
    const std::size_t window = std::min(n, kPipelineWindow);
    {
        std::lock_guard<std::mutex> lk(bd->m);
        bd->next = window;
        bd->live = window;
    }
    for (std::size_t i = 0; i < window; ++i)
        (*launch)(i);

    {
        std::unique_lock<std::mutex> lk(bd->m);
        bd->cv.wait(lk, [&] {
            return bd->live == 0 && bd->repairs == 0 &&
                   (bd->failed || bd->next >= n);
        });
    }
    *launch = nullptr;  // break the launcher's self-reference cycle

    if (bd->failed)
        fatal(bd->failMsg);

    std::vector<RunResult> results;
    results.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<RunResult> one;
        std::string err;
        if (!resultsFromJson(bd->jobs[i].resp.get("result"), one,
                             err) ||
            one.size() != 1)
            fatal("malformed result for job ", i + 1, ": ", err);
        results.push_back(std::move(one.front()));
    }
    return results;
}

JsonValue
ClusterClient::stats()
{
    std::vector<JsonValue> per;
    per.reserve(eps.size());
    for (std::size_t i = 0; i < eps.size(); ++i) {
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::string("stats"));
        JsonValue resp;
        std::string err;
        if (!pool().callSync(i, req, resp, err))
            fatal(err);
        if (!resp.get("ok").asBool(false))
            fatal("stats request to ", eps[i].str(), " failed: ",
                  resp.get("error").asString());
        per.push_back(resp.get("stats"));
    }
    if (per.size() == 1)
        return per.front();

    // Aggregate: sum every numeric counter across nodes, take the
    // maximum of the fields that describe a node rather than count
    // its work (and of the latency high-water mark), drop the
    // per-node mean, and attach the untouched per-node objects under
    // "nodes".
    static const std::set<std::string> kMaxFields = {
        "latency_max_us", "protocol_version", "epoch", "cluster_nodes",
        "replication_factor"};
    JsonValue agg = JsonValue::object();
    for (const auto &[name, v] : per.front().members()) {
        if (!v.isNumber() || name == "latency_mean_us")
            continue;
        const bool max = kMaxFields.count(name) != 0;
        std::uint64_t acc = 0;
        for (const JsonValue &s : per) {
            const std::uint64_t x = s.get(name).asU64(0);
            acc = max ? std::max(acc, x) : acc + x;
        }
        agg.set(name, JsonValue::integer(acc));
    }
    agg.set("nodes_total",
            JsonValue::integer(std::uint64_t{eps.size()}));
    JsonValue nodes = JsonValue::object();
    for (std::size_t i = 0; i < eps.size(); ++i)
        nodes.set(eps[i].str(), std::move(per[i]));
    agg.set("nodes", std::move(nodes));
    return agg;
}

} // namespace dcg::serve
