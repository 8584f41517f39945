/**
 * @file
 * grid-figures: exp::Engine(4) regenerating the eight Figure 10-17
 * grids that figures_all requests, one batch per figure in the same
 * order — 400 jobs, 96 simulations, 304 cache hits per pass. The
 * worker pool, the result cache and the per-batch barrier do the
 * work; the slowest job sets each batch's time. Each pass uses a
 * fresh engine, so every pass simulates.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>

#include "dcgbench.hh"
#include "exp/engine.hh"
#include "exp/grid.hh"
#include "exp/metrics.hh"

namespace dcgbench {

using namespace dcg;

namespace {

constexpr unsigned kWorkers = 4;
constexpr std::uint64_t kSimulations = 96;
constexpr std::uint64_t kJobs = 400;

struct Batch
{
    std::string figure;
    std::vector<exp::Job> jobs;
};

/** figures_all's grids at this workload's run length, on pass
 *  @p pass's trace seed. */
std::vector<Batch>
figureBatches(const Params &p, std::uint64_t pass)
{
    const std::uint64_t insts = p.smoke ? 4'000 : 100'000;
    exp::GridRequest all;
    all.schemes = {"dcg", "plb-orig", "plb-ext"};
    exp::GridRequest dcgVsExt;
    dcgVsExt.schemes = {"dcg", "plb-ext"};
    exp::GridRequest deep;
    deep.deepPipeline = true;

    const std::pair<const char *, exp::GridRequest> figures[] = {
        {"fig10", all},      {"fig11", all},      {"fig12", dcgVsExt},
        {"fig13", dcgVsExt}, {"fig14", dcgVsExt}, {"fig15", dcgVsExt},
        {"fig16", dcgVsExt}, {"fig17", deep},
    };
    std::vector<Batch> batches;
    for (auto [name, req] : figures) {
        req.instructions = insts;
        req.warmup = insts / 10;
        Batch b{name, exp::gridJobs(req)};
        for (exp::Job &j : b.jobs)
            j.config.seed = repetitionSeed(p.seed, pass);
        batches.push_back(std::move(b));
    }
    return batches;
}

/** Records a "simulate" span per engine miss: get() marks the start
 *  (and reports a miss), put() the end. */
class SpanStore final : public exp::ResultStoreBase
{
  public:
    explicit SpanStore(Tracer &tr) : tr(tr) {}

    void setBatch(std::uint64_t id) { batch = id; }

    bool
    get(const std::string &key, RunResult &) override
    {
        const std::int64_t t = nowNs();
        std::lock_guard<std::mutex> g(m);
        started[key] = t;
        return false;
    }

    void
    put(const std::string &key, const RunResult &r) override
    {
        const std::int64_t end = nowNs();
        std::int64_t begin = end;
        {
            std::lock_guard<std::mutex> g(m);
            begin = started[key];
            started.erase(key);
        }
        tr.add(Span{0, batch.load(), "simulate", r.benchmark + "/" + r.scheme,
                    begin, end, 1, false});
    }

  private:
    Tracer &tr;
    std::atomic<std::uint64_t> batch{0};
    std::mutex m;
    std::map<std::string, std::int64_t> started;
};

struct Pass
{
    double wall = 0.0;
    std::vector<double> batchSeconds;
    std::vector<RunResult> results;  ///< every job, request order
    std::uint64_t simulations = 0;
    std::uint64_t hits = 0;
    Window window;
};

Pass
runPass(const std::vector<Batch> &batches,
        const std::shared_ptr<SpanStore> &spans, Tracer &tr,
        std::uint64_t parent)
{
    Pass pass;
    exp::Engine engine(kWorkers);
    engine.attachStore(spans);

    const auto begin = Clock::now();
    for (const Batch &b : batches) {
        const std::uint64_t id = spans ? tr.reserve() : 0;
        if (spans)
            spans->setBatch(id);
        const std::int64_t t0 = nowNs();
        const auto tb = Clock::now();
        const std::vector<RunResult> out = engine.run(b.jobs);
        pass.batchSeconds.push_back(secondsSince(tb));
        if (spans)
            tr.add(Span{id, parent, "batch", b.figure, t0, nowNs(), 1, false});
        pass.results.insert(pass.results.end(), out.begin(), out.end());
    }
    pass.wall = secondsSince(begin);
    pass.simulations = engine.simulations();
    pass.hits = engine.cacheHits();
    return pass;
}

/** Mean |measured - paper| over Figure 10's six suite means (pp). */
double
fig10ErrorPP(const Batch &fig10, const std::vector<RunResult> &results)
{
    // gridJobs order: per benchmark, base then dcg, plb-orig, plb-ext.
    std::vector<exp::SchemeResults> grid;
    for (std::size_t i = 0; i + 3 < fig10.jobs.size(); i += 4) {
        exp::SchemeResults sr;
        sr.profile = fig10.jobs[i].profile;
        for (std::size_t k = 0; k < 4; ++k)
            sr.results.emplace_back(results[i + k].scheme, results[i + k]);
        grid.push_back(std::move(sr));
    }
    double err = 0.0;
    const std::pair<const char *, exp::IntFpMeans> paper[] = {
        {"dcg", {20.9, 18.8}},
        {"plb-orig", {6.3, 4.9}},
        {"plb-ext", {11.0, 8.7}},
    };
    for (const auto &[scheme, want] : paper) {
        const exp::IntFpMeans got = exp::meansBySuite(
            grid, [s = std::string(scheme)](const exp::SchemeResults &r) {
                return exp::powerSaving(r.base(), r.scheme(s));
            });
        err += std::abs(got.intMean * 100.0 - want.intMean) +
               std::abs(got.fpMean * 100.0 - want.fpMean);
    }
    return err / 6.0;
}

/** Checks on every pass; the first also prints its digest. */
void
checkPass(Report &rep, const Params &p, const std::vector<Batch> &batches,
          const Pass &pass, bool first)
{
    rep.attempt(kJobs);
    rep.check(pass.results.size() == kJobs, "grid returned every job");
    rep.check(pass.simulations == kSimulations,
              "grid ran " + std::to_string(pass.simulations) +
                  " simulations, expected 96");
    rep.check(pass.hits == kJobs - kSimulations,
              "grid served " + std::to_string(pass.hits) +
                  " cache hits, expected 304");
    std::size_t at = 0;
    for (const Batch &b : batches) {
        const std::size_t width = b.figure == "fig10" || b.figure == "fig11"
            ? 4 : b.figure == "fig17" ? 2 : 3;
        for (std::size_t i = 0; i < b.jobs.size(); i += width)
            checkSchemeInvariants(
                rep, std::vector<RunResult>(
                         pass.results.begin() + static_cast<long>(at + i),
                         pass.results.begin() +
                             static_cast<long>(at + i + width)));
        at += b.jobs.size();
    }
    if (first) {
        checkDigest(rep, p, digestHex(resultsBytes(pass.results)));
        rep.note("fig10_err_pp", fig10ErrorPP(batches[0], pass.results),
                 "pp");
    }
}

/**
 * A pass as one window. A job's latency runs from the pass's start to
 * its figure's batch returning: what a figures_all caller waits for
 * that figure.
 */
Window
windowOf(const std::vector<Batch> &batches, const Pass &pass)
{
    Window w;
    w.jobs = kJobs;
    w.seconds = pass.wall;
    std::set<std::string> seen;  // each distinct job simulates once
    std::size_t at = 0;
    double done = 0.0;
    for (std::size_t i = 0; i < batches.size(); ++i) {
        for (const exp::Job &j : batches[i].jobs) {
            if (seen.insert(exp::jobKey(j)).second) {
                w.instructions += j.instructions + j.warmup;
                w.cycles += pass.results[at].cycles;
            }
            ++at;
        }
        done += pass.batchSeconds[i];
        w.latencyMs.insert(w.latencyMs.end(), batches[i].jobs.size(),
                           done * 1e3);
    }
    return w;
}

/** Untraced passes until @p seconds pass (at least one); pass k runs
 *  the grids on trace seed k. */
std::vector<Pass>
runPasses(const Params &p, double seconds, Report &rep, Tracer &tr)
{
    std::vector<Pass> passes;
    const auto begin = Clock::now();
    do {
        const std::vector<Batch> batches = figureBatches(p, passes.size());
        Pass pass = runPass(batches, nullptr, tr, 0);
        checkPass(rep, p, batches, pass, passes.empty());
        pass.window = windowOf(batches, pass);
        passes.push_back(std::move(pass));
    } while (secondsSince(begin) < seconds);
    return passes;
}

/** Time within each batch during which fewer than kWorkers
 *  simulations were in flight. */
double
tailSeconds(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, int>>> ev;
    std::map<std::uint64_t, const Span *> batches;
    for (const Span &s : spans) {
        if (s.name == "batch")
            batches[s.id] = &s;
        if (s.name == "simulate") {
            ev[s.parent].emplace_back(s.startNs, +1);
            ev[s.parent].emplace_back(s.endNs, -1);
        }
    }
    std::int64_t tail = 0;
    for (const auto &[id, b] : batches) {
        auto &e = ev[id];
        std::sort(e.begin(), e.end());
        int inflight = 0;
        std::int64_t at = b->startNs;
        for (const auto &[t, d] : e) {
            if (inflight < static_cast<int>(kWorkers))
                tail += std::max<std::int64_t>(0, t - at);
            at = std::max(at, t);
            inflight += d;
        }
        if (b->endNs > at)
            tail += b->endNs - at;
    }
    return static_cast<double>(tail) * 1e-9;
}

} // namespace

void
runGridWorkload(const Params &p, Report &rep, Tracer &tr)
{
    // Set-up: expand the eight figure grids into batches.
    std::vector<double> setup;
    std::vector<Batch> batches;
    for (int i = 0; i < kSetupReps; ++i) {
        const auto t0 = Clock::now();
        batches = figureBatches(p, 0);
        setup.push_back(secondsSince(t0));
    }

    if (!p.traced) {
        const std::vector<Pass> passes = runPasses(p, p.seconds, rep, tr);
        Throughput t{setup, {}, 0.0};
        std::vector<double> walls;
        for (const Pass &pass : passes) {
            t.windows.push_back(pass.window);
            walls.push_back(pass.wall);
        }
        reportEndToEnd(rep, t);
        rep.note("grid_wall_s", median(walls), "s");
        return;
    }

    // Traced: untraced passes for half the time, then the first pass
    // again with a span around every simulation, then the stack on a
    // sample. The untraced first pass is the overhead reference.
    const std::vector<Pass> passes = runPasses(p, p.seconds / 2, rep, tr);
    const auto spans = std::make_shared<SpanStore>(tr);
    const std::uint64_t root = tr.reserve();
    const std::int64_t t0 = nowNs();
    const Pass traced = runPass(batches, spans, tr, root);
    tr.add(Span{root, 0, "pass", p.workload, t0, nowNs(), 1, false});
    checkPass(rep, p, batches, traced, false);
    rep.check(resultsBytes(traced.results) ==
                  resultsBytes(passes[0].results),
              "traced grid pass is bit-identical to the untraced one");

    std::vector<double> simMs;
    double busy = 0.0;
    for (const Span &s : tr.snapshot()) {
        if (s.name != "simulate")
            continue;
        simMs.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-6);
        busy += static_cast<double>(s.endNs - s.startNs) * 1e-9;
    }
    const std::vector<Span> all = tr.snapshot();
    rep.metric("trace.overhead_pct",
               (traced.wall / passes[0].wall - 1.0) * 100.0, "%");
    rep.metric("sim.job_ms_p50", percentile(simMs, 0.5), "ms");
    rep.metric("sim.job_ms_max", percentile(simMs, 1.0), "ms");
    rep.metric("workers.busy_s", busy, "s");
    rep.metric("workers.util", busy / (traced.wall * kWorkers), "frac");
    rep.metric("workers.tail_frac", tailSeconds(all) / traced.wall, "frac");
    rep.metric("jobs.simulated", static_cast<double>(traced.simulations),
               "count");
    rep.metric("jobs.hit_frac",
               static_cast<double>(traced.hits) / static_cast<double>(kJobs),
               "frac");
    for (std::size_t i = 0; i < batches.size(); ++i)
        rep.note("batch." + batches[i].figure + "_s",
                 traced.batchSeconds[i], "s");
    reportNoService(rep);

    // The stack on every twelfth distinct simulation of the pass.
    std::vector<SimJob> sample;
    std::vector<RunResult> reference;
    std::set<std::string> seen;
    std::size_t at = 0, distinct = 0;
    const std::size_t stride = p.smoke ? 24 : 12;
    for (const Batch &b : batches) {
        for (const exp::Job &j : b.jobs) {
            if (seen.insert(exp::jobKey(j)).second &&
                distinct++ % stride == 0) {
                sample.push_back(simJobOf(j));
                reference.push_back(traced.results[at]);
            }
            ++at;
        }
    }
    const std::uint64_t stackRoot = tr.reserve();
    const std::int64_t s0 = nowNs();
    reportStackLayers(rep, p, sample, reference, tr, stackRoot);
    tr.add(Span{stackRoot, 0, "stack.sample", p.workload, s0, nowNs(), 1,
                false});
}

} // namespace dcgbench
