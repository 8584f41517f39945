/**
 * @file
 * serve-grid: an in-process 2-node dcgserved ring (2 workers per node,
 * replicas=2, on-disk stores, a memory-cache budget of ~1/10 of the
 * results) under a closed loop of 4 connections x 16 in-flight
 * submit+wait requests — the shape of dcgsim's pipelined grid fan-out,
 * where callers wait for replies.
 *
 * 60 % of requests are fresh 2000+500-instruction jobs (gzip, mcf,
 * twolf, art; base, dcg, plb-ext; distinct seeds); 40 % resubmit a
 * completed key from the seeded history, so memory and disk hits run
 * beside simulate/store/replicate writes. Half the requests enter at
 * a node that does not own the key and are forwarded. A fresh job
 * simulates in ~1.5 ms, so JSON, peer links, queueing, the store and
 * replication dominate.
 */

#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <thread>

#include "common/log.hh"
#include "dcgbench.hh"
#include "exp/engine.hh"
#include "serve/client.hh"
#include "serve/peerlink.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace dcgbench {

using namespace dcg;
using namespace dcg::serve;

namespace {

constexpr std::size_t kNodes = 2;
/**
 * Fixed node addresses. The ring hashes node names, so ephemeral ports
 * would give every run its own key split (node 0 owned 43-56 % of the
 * workload's keys over eight port pairs) and with it its own
 * throughput. This pair splits the keys 50/50. The addresses are
 * loopback (127/8) and used by nothing else; two serve-grid runs
 * cannot share a machine.
 */
const char *const kNodeHosts[kNodes] = {"127.0.83.1", "127.0.83.11"};
constexpr std::uint16_t kNodePort = 7931;
constexpr unsigned kWorkersPerNode = 2;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kInflight = 16;
/** A resubmit names a fresh key at least this many fresh jobs old, so
 *  it is (nearly always) complete, not coalesced with a live run. */
constexpr std::size_t kRepeatLag = 256;
/** Memory-cache entries per node: ~1/10 of a full run's results. */
constexpr std::uint64_t kCacheEntries = 200;
/** Untimed load before the measurement: fills the resubmit history,
 *  the stores and the caches, so the measured phase is stationary. */
constexpr double kWarmupSeconds = 3.0;
/** The nodes keep a record per request served, so memory grows with
 *  throughput: peak RSS is taken once this many requests completed. */
constexpr std::size_t kRssAtRequests = 5000;

/** The seeded request sequence; callers serialise next(). */
class RequestStream
{
  public:
    struct Req
    {
        std::size_t spec = 0;  ///< index into the fresh-spec history
        bool repeat = false;
    };

    explicit RequestStream(std::uint64_t seed) : rng(seed), seed(seed) {}

    Req
    next()
    {
        static const char *const benches[] = {"gzip", "mcf", "twolf",
                                              "art"};
        static const char *const schemes[] = {"base", "dcg", "plb-ext"};
        const bool repeat = rng() % 10 < 4;
        if (repeat && specs.size() > kRepeatLag)
            return {rng() % (specs.size() - kRepeatLag), true};
        JobSpec s;
        s.bench = benches[rng() % 4];
        s.scheme = schemes[rng() % 3];
        s.insts = 2000;
        s.warmup = 500;
        s.seed = (seed << 32) | specs.size();
        specs.push_back(s);
        return {specs.size() - 1, false};
    }

    const JobSpec &spec(std::size_t i) const { return specs[i]; }
    std::size_t fresh() const { return specs.size(); }

  private:
    std::mt19937_64 rng;
    std::uint64_t seed;
    std::vector<JobSpec> specs;
};

/** The ring plus one persistent link per client connection. */
class BenchCluster
{
  public:
    BenchCluster(const std::string &dir, std::uint64_t cacheBudget)
    {
        for (std::size_t i = 0; i < kNodes; ++i) {
            ServerConfig cfg;
            cfg.host = kNodeHosts[i];
            cfg.port = kNodePort;
            cfg.workers = kWorkersPerNode;
            cfg.storeDir = dir + "/node" + std::to_string(i);
            cfg.replicas = 2;
            cfg.cacheBudgetBytes = cacheBudget;
            servers.push_back(std::make_unique<Server>(cfg));
            eps.push_back(Endpoint{cfg.host, kNodePort});
        }
        for (std::size_t i = 0; i < kNodes; ++i) {
            servers[i]->configureCluster(eps, eps[i].str());
            threads.emplace_back([&srv = *servers[i]] { srv.run(); });
        }
        // Entry nodes alternate, so half the keys arrive off-owner.
        for (std::size_t c = 0; c < kConnections; ++c) {
            links.push_back(std::make_unique<LinkLoop>(
                std::vector<Endpoint>{eps[c % kNodes]}, 0));
            links.back()->start();
            std::string err;
            if (!links.back()->pool().connectSync(0, err))
                fatal("dcgbench: connect: ", err);
        }
    }

    ~BenchCluster()
    {
        for (auto &l : links)
            l->stop();
        for (std::size_t i = 0; i < servers.size(); ++i) {
            servers[i]->requestStop();
            threads[i].join();
        }
    }

    BenchCluster(const BenchCluster &) = delete;
    BenchCluster &operator=(const BenchCluster &) = delete;

    PeerPool &link(std::size_t c) { return links[c]->pool(); }
    const std::vector<Endpoint> &endpoints() const { return eps; }

  private:
    std::vector<std::unique_ptr<Server>> servers;
    std::vector<std::thread> threads;
    std::vector<Endpoint> eps;
    std::vector<std::unique_ptr<LinkLoop>> links;
};

JsonValue
nodeStats(Connection &conn)
{
    JsonValue req = JsonValue::object();
    req.set("op", JsonValue::string("stats"));
    JsonValue resp;
    std::string err;
    if (!conn.roundTrip(req, resp, err))
        fatal("dcgbench: stats: ", err);
    return resp.get("stats");
}

/** Counters summed over the nodes. */
std::map<std::string, double>
clusterCounters(const BenchCluster &cluster)
{
    std::map<std::string, double> sum;
    for (const Endpoint &ep : cluster.endpoints()) {
        Connection conn;
        std::string err;
        if (!conn.open(ep, err))
            fatal("dcgbench: stats connect: ", err);
        const JsonValue s = nodeStats(conn);
        for (const char *k :
             {"jobs_forwarded", "mem_hits", "disk_hits", "simulations",
              "replicas_written", "replica_push_failures"})
            sum[k] += static_cast<double>(s.get(k).asU64(0));
    }
    return sum;
}

struct Done
{
    std::size_t spec = 0;
    bool repeat = false;
    double ms = 0.0;
    double at = 0.0;  ///< completion, seconds into the phase
    RunResult result;
};

/** Client-side spans of a traced phase, rolled up per request kind. */
struct ClientRollups
{
    Rollup encode[2], roundTrip[2], decode[2];
};

/** One closed-loop phase: state shared with the completion handlers. */
struct Board
{
    explicit Board(RequestStream &s) : stream(s) {}

    std::mutex m;
    std::condition_variable cv;
    RequestStream &stream;
    bool stopping = false;
    std::size_t live = 0;
    std::vector<Done> done;
    std::uint64_t failed = 0;
    std::uint64_t busyRetries = 0;
    std::string firstError;
    Clock::time_point begin;
    Clock::time_point lastDone;
    double rssMb = 0.0;
    bool traced = false;
    ClientRollups spans;
};

struct InFlight
{
    RequestStream::Req req;
    JobSpec spec;
    Clock::time_point sent{};
    std::int64_t sentNs = 0;
};

void send(Board &bd, PeerPool &pool, std::shared_ptr<InFlight> f);

/** Take the next request off the stream (bd.m held); false once the
 *  phase is stopping. */
bool
claimNext(Board &bd, std::shared_ptr<InFlight> &out)
{
    if (bd.stopping)
        return false;
    out = std::make_shared<InFlight>();
    out->req = bd.stream.next();
    out->spec = bd.stream.spec(out->req.spec);
    ++bd.live;
    return true;
}

void
onReply(Board &bd, PeerPool &pool, const std::shared_ptr<InFlight> &f,
        PeerReply rr)
{
    const std::int64_t d0 = nowNs();
    const bool ok = rr.transportOk && rr.resp.get("ok").asBool(false);
    if (rr.transportOk && !ok &&
        rr.resp.get("error").asString() == "busy") {
        {
            std::lock_guard<std::mutex> g(bd.m);
            ++bd.busyRetries;
        }
        const auto delay = static_cast<unsigned>(
            rr.resp.get("retry_after_ms").asU64(250));
        pool.schedule(delay, [&bd, &pool, f] { send(bd, pool, f); });
        return;
    }
    std::vector<RunResult> one;
    std::string err;
    const bool decoded =
        ok && resultsFromJson(rr.resp.get("result"), one, err) &&
        one.size() == 1;
    const std::int64_t d1 = nowNs();
    if (!rr.transportOk)
        err = "transport: " + rr.error;
    else if (!ok)
        err = rr.resp.get("error").asString() + ": " +
              rr.resp.get("detail").asString();
    const auto now = Clock::now();

    std::shared_ptr<InFlight> next;
    {
        std::lock_guard<std::mutex> g(bd.m);
        if (decoded) {
            bd.done.push_back(Done{
                f->req.spec, f->req.repeat,
                std::chrono::duration<double, std::milli>(now - f->sent)
                    .count(),
                std::chrono::duration<double>(now - bd.begin).count(),
                std::move(one[0])});
            if (bd.done.size() == kRssAtRequests)
                bd.rssMb = peakRssMb();
        } else {
            ++bd.failed;
            if (bd.firstError.empty())
                bd.firstError = err;
        }
        if (bd.traced) {
            const int kind = f->req.repeat ? 1 : 0;
            bd.spans.roundTrip[kind].add(f->sentNs, d0);
            bd.spans.decode[kind].add(d0, d1);
        }
        bd.lastDone = now;
        --bd.live;
        claimNext(bd, next);
        if (bd.live == 0)
            bd.cv.notify_all();
    }
    if (next)
        send(bd, pool, next);
}

void
send(Board &bd, PeerPool &pool, std::shared_ptr<InFlight> f)
{
    const std::int64_t e0 = nowNs();
    JsonValue req = JsonValue::object();
    req.set("op", JsonValue::string("submit"));
    req.set("job", f->spec.toJson());
    req.set("wait", JsonValue::boolean(true));
    const std::int64_t e1 = nowNs();
    if (f->sentNs == 0) {
        f->sent = Clock::now();
        f->sentNs = e1;
    }
    if (bd.traced) {
        std::lock_guard<std::mutex> g(bd.m);
        bd.spans.encode[f->req.repeat ? 1 : 0].add(e0, e1);
    }
    pool.post(0, std::move(req), [&bd, &pool, f](PeerReply rr) {
        onReply(bd, pool, f, std::move(rr));
    });
}

struct LoadPhase
{
    std::vector<Done> done;
    double seconds = 0.0;
    double rssMb = 0.0;  ///< at kRssAtRequests completions, 0 = never
    std::uint64_t failed = 0;
    std::uint64_t busyRetries = 0;
    ClientRollups spans;
};

/** Run the closed loop for @p seconds, then drain. */
LoadPhase
runLoad(BenchCluster &cluster, RequestStream &stream, double seconds,
        bool traced, Report &rep)
{
    Board bd(stream);
    bd.traced = traced;
    bd.begin = Clock::now();
    std::vector<std::pair<PeerPool *, std::shared_ptr<InFlight>>> first;
    {
        std::lock_guard<std::mutex> g(bd.m);
        for (std::size_t c = 0; c < kConnections; ++c) {
            for (std::size_t s = 0; s < kInflight; ++s) {
                std::shared_ptr<InFlight> f;
                claimNext(bd, f);
                first.emplace_back(&cluster.link(c), f);
            }
        }
    }
    const auto begin = bd.begin;
    for (auto &[pool, f] : first)
        send(bd, *pool, f);

    std::this_thread::sleep_until(
        begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds)));
    std::unique_lock<std::mutex> lk(bd.m);
    bd.stopping = true;
    bd.cv.wait(lk, [&] { return bd.live == 0; });

    LoadPhase ph;
    ph.seconds = std::chrono::duration<double>(
                     std::max(bd.lastDone, begin) - begin)
                     .count();
    ph.rssMb = bd.rssMb;
    ph.failed = bd.failed;
    ph.busyRetries = bd.busyRetries;
    ph.spans = bd.spans;
    ph.done = std::move(bd.done);
    rep.attempt(ph.done.size() + ph.failed);
    rep.fail(ph.failed, "requests failed (first: " + bd.firstError + ")");
    return ph;
}

/** Samples of every node's stats op, every 100 ms. */
class StatsSampler
{
  public:
    explicit StatsSampler(const BenchCluster &cluster)
        : thread([this, eps = cluster.endpoints()] { loop(eps); })
    {
    }

    ~StatsSampler()
    {
        {
            std::lock_guard<std::mutex> g(m);
            stopFlag = true;
        }
        cv.notify_all();
        thread.join();
    }

    StatsSampler(const StatsSampler &) = delete;
    StatsSampler &operator=(const StatsSampler &) = delete;

    struct Sample
    {
        double at = 0.0;  ///< seconds since the sampler started
        std::vector<double> queueDepth, busyWorkers, forwardsInflight;
    };

    std::vector<Sample>
    samples()
    {
        std::lock_guard<std::mutex> g(m);
        return list;
    }

  private:
    void
    loop(const std::vector<Endpoint> &eps)
    {
        std::vector<Connection> conns(eps.size());
        for (std::size_t i = 0; i < eps.size(); ++i) {
            std::string err;
            if (!conns[i].open(eps[i], err))
                fatal("dcgbench: sampler connect: ", err);
        }
        const auto begin = Clock::now();
        std::unique_lock<std::mutex> lk(m);
        while (!stopFlag) {
            lk.unlock();
            Sample s;
            s.at = secondsSince(begin);
            for (Connection &c : conns) {
                const JsonValue st = nodeStats(c);
                s.queueDepth.push_back(
                    static_cast<double>(st.get("queue_depth").asU64(0)));
                s.busyWorkers.push_back(
                    static_cast<double>(st.get("busy_workers").asU64(0)));
                s.forwardsInflight.push_back(static_cast<double>(
                    st.get("forwards_inflight").asU64(0)));
            }
            lk.lock();
            list.push_back(std::move(s));
            cv.wait_for(lk, std::chrono::milliseconds(100),
                        [&] { return stopFlag; });
        }
    }

    std::mutex m;
    std::condition_variable cv;
    bool stopFlag = false;
    std::vector<Sample> list;
    std::thread thread;  ///< last: starts after the members it uses
};

std::string
freshDir()
{
    static int n = 0;
    const std::string dir = workDir() + "/serve-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(n++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** The local Engine's result for every fresh spec @p phases completed;
 *  each cluster reply must equal it byte for byte. */
void
checkAgainstLocal(Report &rep, const Params &p,
                  const RequestStream &stream,
                  const std::vector<const LoadPhase *> &phases)
{
    std::vector<bool> needed(stream.fresh(), false);
    for (const LoadPhase *ph : phases)
        for (const Done &d : ph->done)
            needed[d.spec] = true;
    const std::size_t digestSpecs = std::min<std::size_t>(200, needed.size());
    for (std::size_t i = 0; i < digestSpecs; ++i)
        needed[i] = true;
    std::vector<exp::Job> jobs;
    std::vector<std::size_t> slot(stream.fresh(), 0);
    for (std::size_t i = 0; i < needed.size(); ++i) {
        if (needed[i]) {
            slot[i] = jobs.size();
            jobs.push_back(stream.spec(i).toJob());
        }
    }
    exp::Engine local(kNodes * kWorkersPerNode);
    const std::vector<RunResult> want = local.run(jobs);

    std::uint64_t mismatches = 0;
    for (const LoadPhase *ph : phases)
        for (const Done &d : ph->done)
            mismatches += resultsBytes({d.result}) !=
                          resultsBytes({want[slot[d.spec]]});
    rep.fail(mismatches, "cluster replies differ from the local engine");

    std::vector<RunResult> head;
    for (std::size_t i = 0; i < digestSpecs; ++i)
        head.push_back(want[slot[i]]);
    checkDigest(rep, p, digestHex(resultsBytes(head)));
}

/** One window per whole second of the phase; completions while the
 *  last requests drain fall outside every window. */
std::vector<Window>
windowsOf(const LoadPhase &ph)
{
    const auto whole = static_cast<std::size_t>(ph.seconds);
    std::vector<Window> windows(std::max<std::size_t>(whole, 1));
    for (Window &w : windows)
        w.seconds = whole ? 1.0 : ph.seconds;
    for (const Done &d : ph.done) {
        const auto k = static_cast<std::size_t>(d.at);
        if (whole && k >= whole)
            continue;
        Window &w = windows[whole ? k : 0];
        ++w.jobs;
        w.latencyMs.push_back(d.ms);
        if (!d.repeat) {
            w.instructions += d.result.instructions + 500;
            w.cycles += d.result.cycles;
        }
    }
    return windows;
}

void
noteLatencyByKind(Report &rep, const LoadPhase &ph)
{
    std::vector<double> ms[2];
    for (const Done &d : ph.done)
        ms[d.repeat ? 1 : 0].push_back(d.ms);
    const char *kind[] = {"fresh", "repeat"};
    for (int k = 0; k < 2; ++k) {
        const std::string n = std::string("serve.") + kind[k];
        rep.note(n + "_samples", static_cast<double>(ms[k].size()), "count");
        rep.note(n + "_ms_p50", percentile(ms[k], 0.50), "ms");
        rep.note(n + "_ms_p99", percentile(ms[k], 0.99), "ms");
    }
}

} // namespace

void
runServeWorkload(const Params &p, Report &rep, Tracer &tr)
{
    // Memory-cache budget in bytes: the engine's per-entry estimate
    // is a fixed 512 B plus the key and the two names.
    JobSpec probe;
    probe.insts = 2000;
    probe.warmup = 500;
    const std::uint64_t entryBytes = 512 + 32 +
        exp::jobKey(probe.toJob()).size();
    const std::uint64_t budget = kCacheEntries * entryBytes;

    // Set-up: store directories, cluster start, link connect.
    std::vector<double> setup;
    std::unique_ptr<BenchCluster> cluster;
    std::vector<std::string> dirs;
    for (int i = 0; i < kSetupReps; ++i) {
        cluster.reset();
        const auto t0 = Clock::now();
        dirs.push_back(freshDir());
        cluster = std::make_unique<BenchCluster>(dirs.back(), budget);
        setup.push_back(secondsSince(t0));
    }

    RequestStream stream(p.seed);
    const LoadPhase warmup = runLoad(*cluster, stream,
                                     p.smoke ? 0.2 : kWarmupSeconds, false,
                                     rep);
    // Traced: untraced, traced and untraced again, a third each; the
    // last third is the overhead reference.
    const double seconds = p.traced ? p.seconds / 3 : p.seconds;
    const LoadPhase phaseA = runLoad(*cluster, stream, seconds, false, rep);
    noteLatencyByKind(rep, phaseA);

    if (!p.traced) {
        cluster.reset();
        checkAgainstLocal(rep, p, stream, {&warmup, &phaseA});
        reportEndToEnd(rep,
                       Throughput{setup, windowsOf(phaseA), phaseA.rssMb});
        rep.note("serve.busy_retries", static_cast<double>(phaseA.busyRetries),
                 "count");
    } else {
        const auto before = clusterCounters(*cluster);
        const std::int64_t t0 = nowNs();
        const std::uint64_t root = tr.reserve();
        std::vector<StatsSampler::Sample> samples;
        LoadPhase phaseB;
        {
            StatsSampler sampler(*cluster);
            phaseB = runLoad(*cluster, stream, seconds, true, rep);
            samples = sampler.samples();
        }
        tr.add(Span{root, 0, "load.traced", p.workload, t0, nowNs(), 1,
                    false});
        const char *kind[] = {"fresh", "repeat"};
        for (int k = 0; k < 2; ++k) {
            tr.addRollup("client.encode", root, kind[k],
                         phaseB.spans.encode[k]);
            tr.addRollup("client.round_trip", root, kind[k],
                         phaseB.spans.roundTrip[k]);
            tr.addRollup("client.decode", root, kind[k],
                         phaseB.spans.decode[k]);
        }
        auto after = clusterCounters(*cluster);
        for (auto &[k, v] : after)
            v -= before.at(k);
        const LoadPhase phaseC =
            runLoad(*cluster, stream, seconds, false, rep);
        cluster.reset();
        checkAgainstLocal(rep, p, stream,
                          {&warmup, &phaseA, &phaseB, &phaseC});

        const double rateB =
            static_cast<double>(phaseB.done.size()) / phaseB.seconds;
        const double rateC =
            static_cast<double>(phaseC.done.size()) / phaseC.seconds;
        rep.metric("trace.overhead_pct", (rateC / rateB - 1.0) * 100.0, "%");

        double busy = 0.0, tail = 0.0, prev = 0.0, inflightPeak = 0.0;
        std::vector<double> depth;
        for (const auto &s : samples) {
            double b = 0.0;
            for (const double w : s.busyWorkers)
                b += w;
            busy += b * (s.at - prev);
            tail += b < kNodes * kWorkersPerNode;
            prev = s.at;
            depth.insert(depth.end(), s.queueDepth.begin(),
                         s.queueDepth.end());
            for (const double f : s.forwardsInflight)
                inflightPeak = std::max(inflightPeak, f);
        }
        const double served =
            after["mem_hits"] + after["disk_hits"] + after["simulations"];
        rep.metric("workers.busy_s", busy, "s");
        rep.metric("workers.util",
                   busy / (phaseB.seconds * kNodes * kWorkersPerNode),
                   "frac");
        rep.metric("workers.tail_frac",
                   samples.empty()
                       ? 0.0
                       : tail / static_cast<double>(samples.size()),
                   "frac");
        rep.metric("jobs.simulated", after["simulations"], "count");
        rep.metric("jobs.hit_frac",
                   served > 0 ? (served - after["simulations"]) / served : 0,
                   "frac");
        rep.metric("serve.forwarded_frac",
                   after["jobs_forwarded"] /
                       static_cast<double>(phaseB.done.size()),
                   "frac");
        rep.metric("serve.forwards_inflight_peak", inflightPeak, "count");
        rep.metric("serve.queue_depth_p99", percentile(depth, 0.99),
                   "count");
        rep.metric("serve.busy_retries",
                   static_cast<double>(phaseB.busyRetries), "count");
        rep.metric("serve.mem_hits", after["mem_hits"], "count");
        rep.metric("serve.disk_hits", after["disk_hits"], "count");
        rep.metric("serve.replicas_written", after["replicas_written"],
                   "count");
        rep.metric("serve.replica_push_failures",
                   after["replica_push_failures"], "count");
        for (int k = 0; k < 2; ++k) {
            const std::string n = std::string("serve.client.") + kind[k];
            const auto us = [](const Rollup &r) {
                return r.calls ? static_cast<double>(r.totalNs) * 1e-3 /
                                     static_cast<double>(r.calls)
                               : 0.0;
            };
            rep.note(n + ".encode_us", us(phaseB.spans.encode[k]), "us");
            rep.note(n + ".round_trip_us", us(phaseB.spans.roundTrip[k]),
                     "us");
            rep.note(n + ".decode_us", us(phaseB.spans.decode[k]), "us");
        }

        // The stack and the component passes on the first fresh jobs.
        std::vector<SimJob> sample;
        std::vector<RunResult> reference;
        std::vector<double> simMs;
        const std::size_t n =
            std::min<std::size_t>(p.smoke ? 16 : 64, stream.fresh());
        for (std::size_t i = 0; i < n; ++i) {
            sample.push_back(simJobOf(stream.spec(i).toJob()));
            const auto s0 = Clock::now();
            reference.push_back(runSimulator(sample.back()));
            simMs.push_back(secondsSince(s0) * 1e3);
        }
        rep.metric("sim.job_ms_p50", percentile(simMs, 0.5), "ms");
        rep.metric("sim.job_ms_max", percentile(simMs, 1.0), "ms");
        const std::uint64_t stackRoot = tr.reserve();
        const std::int64_t s0 = nowNs();
        reportStackLayers(rep, p, sample, reference, tr, stackRoot);
        tr.add(Span{stackRoot, 0, "stack.sample", p.workload, s0, nowNs(),
                    1, false});
    }
    for (const std::string &d : dirs)
        std::filesystem::remove_all(d);
}

} // namespace dcgbench
