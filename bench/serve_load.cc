/**
 * @file
 * serve_load — throughput/latency driver for the multiplexed serving
 * layer (connections x in-flight x nodes).
 *
 * Topology: --nodes in-process dcgserved shards on a shared ring with
 * --workers simulation workers each. --connections independent load
 * generators each hold --inflight submit frames (each answered once,
 * when its job finishes) pipelined on ONE persistent PeerLink to an
 * entry node (entry nodes round-robin over the ring), so with
 * nodes > 1 a steady fraction of the jobs is forwarded shard-to-shard
 * over the server-side multiplexed peer links — the path this driver
 * exists to measure.
 *
 * Every run is also a correctness check: the assembled grid must be
 * byte-identical to a local Engine run of the same jobs, and with
 * nodes > 1 the cluster must demonstrably pipeline — the peak number
 * of concurrently in-flight forwarded jobs on some node has to reach
 * 4x that node's worker count (workers only simulate; the event loop
 * owns every wire exchange).
 *
 * The measured point is appended to a BENCH_serve.json trajectory
 * (--json), and --baseline/--max-regression turn the run into a CI
 * gate: jobs/s below baseline x (1 - max-regression) fails the run.
 *
 *   serve_load --nodes=2 --workers=2 --connections=4 --inflight=32 \
 *              --jobs=128 --insts=2000 --label=ci-2node \
 *              --json=BENCH_serve.json \
 *              --baseline=BENCH_serve.json --max-regression=0.2
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/options.hh"
#include "exp/engine.hh"
#include "serve/client.hh"
#include "serve/peerlink.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/report.hh"

using namespace dcg;
using namespace dcg::serve;

namespace {

using Clock = std::chrono::steady_clock;

/** The job list: distinct seeds = distinct keys spread over the ring,
 *  so every job is a real simulation, never a cache hit. */
std::vector<JobSpec>
makeSpecs(std::size_t jobs, std::uint64_t insts)
{
    std::vector<JobSpec> specs;
    const char *benches[] = {"gzip", "mcf", "twolf", "art"};
    for (std::size_t i = 0; i < jobs; ++i) {
        JobSpec s;
        s.bench = benches[i % 4];
        s.scheme = i % 2 == 0 ? "dcg" : "base";
        s.insts = insts;
        s.warmup = insts / 4;
        s.seed = 1 + i;
        specs.push_back(s);
    }
    return specs;
}

std::string
asJson(const std::vector<RunResult> &results)
{
    std::ostringstream os;
    writeResultsJson(results, os);
    return os.str();
}

/** An in-process ring of dcgserved shards, torn down on destruction. */
class BenchCluster
{
  public:
    BenchCluster(std::size_t n, unsigned workers)
    {
        for (std::size_t i = 0; i < n; ++i) {
            ServerConfig cfg;
            cfg.host = "127.0.0.1";
            cfg.port = 0;
            cfg.workers = workers;
            // Backpressure would distort the measurement: size the
            // queue for the whole offered load instead.
            cfg.queueCapacity = 4096;
            servers.push_back(std::make_unique<Server>(cfg));
            eps.push_back(
                Endpoint{"127.0.0.1", servers.back()->port()});
        }
        for (std::size_t i = 0; i < n; ++i) {
            servers[i]->configureCluster(eps, eps[i].str());
            threads.emplace_back(
                [&srv = *servers[i]] { srv.run(); });
        }
    }

    ~BenchCluster()
    {
        for (std::size_t i = 0; i < servers.size(); ++i) {
            servers[i]->requestStop();
            if (threads[i].joinable())
                threads[i].join();
        }
    }

    const std::vector<Endpoint> &endpoints() const { return eps; }

    JsonValue nodeStats(std::size_t i)
    {
        Connection conn;
        std::string err;
        if (!conn.open(eps[i], err))
            fatal("serve_load: stats connect: ", err);
        JsonValue req = JsonValue::object();
        req.set("op", JsonValue::string("stats"));
        JsonValue resp;
        if (!conn.roundTrip(req, resp, err))
            fatal("serve_load: stats: ", err);
        return resp.get("stats");
    }

  private:
    std::vector<std::unique_ptr<Server>> servers;
    std::vector<std::thread> threads;
    std::vector<Endpoint> eps;
};

/** Everything the completion handlers share. */
struct Board
{
    std::mutex m;
    std::condition_variable cv;
    std::size_t live = 0;
    bool failed = false;
    std::string failMsg;
    std::vector<JsonValue> results;  ///< by global job index
    std::vector<double> latencyMs;   ///< by global job index
    std::vector<Clock::time_point> sentAt;
};

struct LoadConn
{
    std::unique_ptr<LinkLoop> loop;
    std::vector<std::size_t> slice;  ///< global job indices
    std::size_t next = 0;            ///< guarded by Board::m
    std::shared_ptr<std::function<void(std::size_t)>> launch;
};

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Append this run's entry to the --json trajectory file. */
void
persistEntry(const std::string &path, const JsonValue &entry)
{
    JsonValue doc;
    bool fresh = true;
    std::ifstream probe(path);
    if (probe.good()) {
        std::string err;
        if (JsonValue::parse(readFile(path), doc, err) &&
            doc.has("entries"))
            fresh = false;
        else
            warn("serve_load: ", path,
                 " is not a trajectory file; rewriting it");
    }
    if (fresh) {
        doc = JsonValue::object();
        doc.set("schema", JsonValue::integer(std::uint64_t{1}));
        doc.set("bench", JsonValue::string("serve_load"));
        doc.set("entries", JsonValue::array());
    }
    JsonValue entries = doc.get("entries");
    entries.push(entry);
    doc.set("entries", entries);
    std::ofstream out(path, std::ios::trunc);
    out << doc.dump() << "\n";
    if (!out)
        fatal("serve_load: cannot write ", path);
}

/** The baseline jobs/s: the LAST trajectory entry with our label. */
bool
baselineJobsPerSec(const std::string &path, const std::string &label,
                   double &out)
{
    JsonValue doc;
    std::string err;
    if (!JsonValue::parse(readFile(path), doc, err))
        fatal("serve_load: cannot parse baseline ", path, ": ", err);
    bool found = false;
    for (const JsonValue &e : doc.get("entries").items()) {
        if (e.get("label").asString() != label)
            continue;
        out = e.get("jobs_per_sec").asNumber(0.0);
        found = true;
    }
    return found;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts(argc, argv,
                       {"nodes", "workers", "connections", "inflight",
                        "jobs", "insts", "json", "baseline",
                        "max-regression", "label"});
    const std::size_t nodes =
        static_cast<std::size_t>(opts.getInt("nodes", 2));
    const unsigned workers =
        static_cast<unsigned>(opts.getInt("workers", 2));
    const std::size_t connections =
        static_cast<std::size_t>(opts.getInt("connections", 4));
    const std::size_t inflight =
        static_cast<std::size_t>(opts.getInt("inflight", 32));
    const std::size_t jobs =
        static_cast<std::size_t>(opts.getInt("jobs", 128));
    const std::uint64_t insts =
        static_cast<std::uint64_t>(opts.getInt("insts", 2000));
    const std::string jsonPath = opts.getString("json", "");
    const std::string baseline = opts.getString("baseline", "");
    const double maxRegression =
        opts.getDouble("max-regression", 0.2);
    const std::string label = opts.getString("label", "local");
    if (nodes == 0 || connections == 0 || inflight == 0 || jobs == 0)
        fatal("serve_load: nodes/connections/inflight/jobs must be "
              "positive");

    const std::vector<JobSpec> specs = makeSpecs(jobs, insts);

    // The ground truth this cluster must reproduce byte-for-byte.
    std::string expected;
    {
        exp::Engine local(workers);
        std::vector<exp::Job> lj;
        for (const JobSpec &s : specs)
            lj.push_back(s.toJob());
        expected = asJson(local.run(lj));
    }

    BenchCluster cluster(nodes, workers);

    // One LinkLoop per connection; jobs dealt round-robin so every
    // connection works a representative slice of the key space.
    std::vector<LoadConn> conns(connections);
    for (std::size_t c = 0; c < connections; ++c) {
        const Endpoint entry =
            cluster.endpoints()[c % cluster.endpoints().size()];
        conns[c].loop = std::make_unique<LinkLoop>(
            std::vector<Endpoint>{entry}, /*peerTimeoutMs=*/0);
        conns[c].loop->start();
    }
    for (std::size_t i = 0; i < jobs; ++i)
        conns[i % connections].slice.push_back(i);

    Board bd;
    bd.results.resize(jobs);
    bd.latencyMs.resize(jobs, 0.0);
    bd.sentAt.resize(jobs);
    bd.live = jobs;

    for (std::size_t c = 0; c < connections; ++c) {
        LoadConn &conn = conns[c];
        PeerPool &pool = conn.loop->pool();
        conn.launch =
            std::make_shared<std::function<void(std::size_t)>>();
        auto launch = conn.launch;
        *launch = [&bd, &conn, &pool, launch,
                   &specs](std::size_t idx) {
            JsonValue req = JsonValue::object();
            req.set("op", JsonValue::string("submit"));
            req.set("job", specs[idx].toJson());
            {
                std::lock_guard<std::mutex> g(bd.m);
                if (bd.sentAt[idx] == Clock::time_point{})
                    bd.sentAt[idx] = Clock::now();
            }
            pool.post(0, std::move(req), [&bd, &conn, &pool, launch,
                                          idx](PeerReply rr) {
                bool relaunchBusy = false;
                bool hasNext = false;
                std::size_t next = 0;
                {
                    std::lock_guard<std::mutex> g(bd.m);
                    if (!rr.transportOk) {
                        bd.failed = true;
                        bd.failMsg = "transport: " + rr.error;
                    } else if (rr.resp.get("ok").asBool(false)) {
                        bd.results[idx] = rr.resp.get("result");
                        bd.latencyMs[idx] =
                            std::chrono::duration<double,
                                                  std::milli>(
                                Clock::now() - bd.sentAt[idx])
                                .count();
                    } else if (rr.resp.get("error").asString() ==
                               "busy") {
                        relaunchBusy = true;
                    } else {
                        bd.failed = true;
                        bd.failMsg =
                            rr.resp.get("error").asString() + ": " +
                            rr.resp.get("detail").asString();
                    }
                    if (!relaunchBusy) {
                        --bd.live;
                        if (!bd.failed &&
                            conn.next < conn.slice.size()) {
                            hasNext = true;
                            next = conn.slice[conn.next++];
                        }
                        bd.cv.notify_all();
                    }
                }
                if (relaunchBusy) {
                    const unsigned delay = static_cast<unsigned>(
                        rr.resp.get("retry_after_ms").asU64(250));
                    pool.schedule(delay,
                                  [launch, idx] { (*launch)(idx); });
                } else if (hasNext) {
                    (*launch)(next);
                }
            });
        };
    }

    const auto begin = Clock::now();
    for (LoadConn &conn : conns) {
        const std::size_t first =
            std::min(inflight, conn.slice.size());
        {
            // The launcher locks bd.m itself: set the refill cursor
            // first, then launch without the lock held.
            std::lock_guard<std::mutex> g(bd.m);
            conn.next = first;
        }
        for (std::size_t s = 0; s < first; ++s)
            (*conn.launch)(conn.slice[s]);
    }
    {
        std::unique_lock<std::mutex> lk(bd.m);
        bd.cv.wait(lk, [&] { return bd.live == 0 || bd.failed; });
        // On failure, outstanding completions still hold references:
        // wait for every launched request to settle before teardown.
        bd.cv.wait(lk, [&] { return bd.live == 0; });
    }
    const double elapsedSec =
        std::chrono::duration<double>(Clock::now() - begin).count();
    for (LoadConn &conn : conns)
        *conn.launch = nullptr;  // break the self-reference cycle
    for (LoadConn &conn : conns)
        conn.loop->stop();

    if (bd.failed)
        fatal("serve_load: ", bd.failMsg);

    // Byte-identity: the pipelined, forwarded, rid-matched grid must
    // equal the local run token for token.
    std::vector<RunResult> got;
    for (std::size_t i = 0; i < jobs; ++i) {
        std::vector<RunResult> one;
        std::string err;
        if (!resultsFromJson(bd.results[i], one, err) ||
            one.size() != 1)
            fatal("serve_load: malformed result for job ",
                  std::to_string(i), ": ", err);
        got.push_back(one[0]);
    }
    if (asJson(got) != expected)
        fatal("serve_load: remote grid is not byte-identical to the "
              "local run");

    const double jobsPerSec =
        static_cast<double>(jobs) / elapsedSec;
    const double p50 = percentile(bd.latencyMs, 0.50);
    const double p99 = percentile(bd.latencyMs, 0.99);

    std::uint64_t forwards = 0;
    std::uint64_t peakInflightForwards = 0;
    std::uint64_t simulations = 0;
    for (std::size_t i = 0; i < nodes; ++i) {
        const JsonValue s = cluster.nodeStats(i);
        forwards += s.get("jobs_forwarded").asU64(0);
        peakInflightForwards =
            std::max(peakInflightForwards,
                     s.get("forwards_inflight_peak").asU64(0));
        simulations += s.get("simulations").asU64(0);
    }

    std::cout << "serve_load: nodes=" << nodes
              << " workers=" << workers
              << " connections=" << connections
              << " inflight=" << inflight << " jobs=" << jobs
              << " insts=" << insts << "\n"
              << "serve_load: " << jobsPerSec << " jobs/s  p50="
              << p50 << "ms  p99=" << p99 << "ms  elapsed="
              << elapsedSec << "s\n"
              << "serve_load: forwards=" << forwards
              << " forwards_inflight_peak=" << peakInflightForwards
              << " simulations=" << simulations << "\n";

    // The pipelining criterion: workers only simulate, so a node must
    // be able to hold far more forwarded jobs in flight than it has
    // workers — 4x is the floor the trajectory is held to.
    if (nodes > 1) {
        const std::uint64_t floor = 4 * workers;
        if (peakInflightForwards < floor)
            fatal("serve_load: forwards_inflight_peak ",
                  std::to_string(peakInflightForwards),
                  " never reached 4x workers (",
                  std::to_string(floor),
                  "): the cluster is not pipelining");
        std::cout << "serve_load: pipelining criterion ok ("
                  << peakInflightForwards << " >= " << floor
                  << ")\n";
    }

    if (!baseline.empty()) {
        double base = 0.0;
        if (!baselineJobsPerSec(baseline, label, base)) {
            warn("serve_load: no baseline entry labelled '", label,
                 "' in ", baseline, "; skipping the gate");
        } else {
            const double gate = base * (1.0 - maxRegression);
            std::cout << "serve_load: baseline=" << base
                      << " jobs/s gate=" << gate << " jobs/s\n";
            if (jobsPerSec < gate)
                fatal("serve_load: ", std::to_string(jobsPerSec),
                      " jobs/s regressed more than ",
                      std::to_string(maxRegression * 100),
                      "% below baseline ", std::to_string(base));
        }
    }

    if (!jsonPath.empty()) {
        JsonValue entry = JsonValue::object();
        entry.set("label", JsonValue::string(label));
        entry.set("nodes", JsonValue::integer(std::uint64_t{nodes}));
        entry.set("workers",
                  JsonValue::integer(std::uint64_t{workers}));
        entry.set("connections",
                  JsonValue::integer(std::uint64_t{connections}));
        entry.set("inflight",
                  JsonValue::integer(std::uint64_t{inflight}));
        entry.set("jobs", JsonValue::integer(std::uint64_t{jobs}));
        entry.set("insts", JsonValue::integer(insts));
        entry.set("jobs_per_sec", JsonValue::number(jobsPerSec));
        entry.set("p50_ms", JsonValue::number(p50));
        entry.set("p99_ms", JsonValue::number(p99));
        entry.set("forwards", JsonValue::integer(forwards));
        entry.set("forwards_inflight_peak",
                  JsonValue::integer(peakInflightForwards));
        persistEntry(jsonPath, entry);
        std::cout << "serve_load: appended '" << label << "' to "
                  << jsonPath << "\n";
    }
    return 0;
}
