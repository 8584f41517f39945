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
#include <mutex>
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

/**
 * A response whose failure is the *node's* fault, not the request's:
 * worth retrying on the key's next node. "draining" is a node on
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
                             unsigned timeout)
    : eps(std::move(endpoints)), timeoutMs(timeout)
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
        // Another node can take a down node's jobs: the ring names
        // every node as a candidate for every key.
        if (eps.size() == 1)
            fatal(err);
        warn("client: ", err, " (will fail over)");
    }
    if (up == 0)
        fatal("client: no server endpoint is reachable");
}

JsonValue
ClusterClient::roundTrip(const JsonValue &req)
{
    // The link layer stamps the protocol version and request id.
    JsonValue resp;
    std::string err;
    if (!pool().callSync(0, req, resp, err))
        fatal(err);
    return resp;
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
        /** Node indices in the key's ring order, owner first. */
        std::vector<std::size_t> nodes;
        std::size_t pos = 0;  ///< the node currently tried
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
        bool failed = false;
        std::string failMsg;
    };

    auto bd = std::make_shared<Board>();
    bd->jobs.resize(n);
    // Route by the engine's content address: the key the servers'
    // rings place.
    for (std::size_t i = 0; i < n; ++i)
        bd->jobs[i].nodes =
            ring.ownerIndices(exp::jobKey(specs[i].toJob()), eps.size());

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
            const JobSt &job = bd->jobs[i];
            idx = job.nodes[job.pos];
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
            // Resubmit to the next node in the key's ring order; it
            // walks the key's holders. False when every node failed.
            const auto failOver = [&] {
                if (job.pos + 1 >= job.nodes.size())
                    return false;
                ++job.pos;
                ++failoverCount;
                lk.unlock();
                (*launch)(i);
                return true;
            };

            if (bd->failed) {
                --bd->live;
                bd->cv.notify_all();
                return;
            }

            if (!r.transportOk) {
                if (!failOver())
                    fail("job " + std::to_string(i + 1) + ": " +
                         r.error);
                return;
            }

            if (r.resp.get("ok").asBool(false)) {
                job.resp = std::move(r.resp);
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
            if (failedOverable(code) && failOver())
                return;
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
            return bd->live == 0 && (bd->failed || bd->next >= n);
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
    std::size_t answered = 0;
    std::size_t first = 0;  ///< first node that answered
    std::string lastErr;
    for (std::size_t i = 0; i < eps.size(); ++i) {
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::string("stats"));
        JsonValue resp;
        std::string err;
        if (pool().callSync(i, req, resp, err) &&
            !resp.get("ok").asBool(false))
            err = "stats request to " + eps[i].str() + " failed: " +
                  resp.get("error").asString();
        if (err.empty()) {
            if (answered++ == 0)
                first = i;
            per.push_back(resp.get("stats"));
            continue;
        }
        // A dead node must not cost the other nodes' figures.
        JsonValue e = JsonValue::object();
        e.set("error", JsonValue::string(err));
        per.push_back(std::move(e));
        lastErr = std::move(err);
    }
    if (answered == 0)
        fatal(lastErr);
    if (per.size() == 1)
        return per.front();

    // Aggregate over the nodes that answered: sum every numeric
    // counter, take the maximum of the fields that describe a node
    // rather than count its work (and of the latency high-water
    // mark), drop the per-node mean, and attach the untouched
    // per-node objects under "nodes".
    static const std::set<std::string> kMaxFields = {
        "latency_max_us", "protocol_version", "epoch", "cluster_nodes",
        "replication_factor"};
    JsonValue agg = JsonValue::object();
    for (const auto &[name, v] : per[first].members()) {
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
    agg.set("nodes_unreachable",
            JsonValue::integer(std::uint64_t{eps.size() - answered}));
    JsonValue nodes = JsonValue::object();
    for (std::size_t i = 0; i < eps.size(); ++i)
        nodes.set(eps[i].str(), std::move(per[i]));
    agg.set("nodes", std::move(nodes));
    return agg;
}

} // namespace dcg::serve
