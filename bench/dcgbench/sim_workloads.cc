/**
 * @file
 * sim-int and sim-mem: single-thread simulations run back to back.
 *
 * sim-int keeps code and data resident in L1 (IPC ~2.6): the window,
 * issue, gating and power work of every cycle dominates; skip-ahead
 * never fires. Four schemes on one trace vary the gating layer's work
 * and make the DCG-family-cycles-equal-base check possible.
 *
 * sim-mem runs the same layers on stall cycles instead (IPC 0.4-0.8,
 * 15-23 % L1D misses): PLB's stateful beginCycle constraints are
 * active and the idle skip-ahead path engages on the I-cache storm.
 * A gain on one of the two that costs the other shows.
 */

#include "dcgbench.hh"
#include "sim/presets.hh"
#include "trace/spec2000.hh"

namespace dcgbench {

using namespace dcg;

namespace {

/** gzip with a 16 MB code footprint, as tests/sim/skipahead_test.cc
 *  defines it: fetch misses to memory while the window drains. */
Profile
icacheStormProfile()
{
    Profile p = profileByName("gzip");
    p.name = "icache-storm";
    p.codeFootprintBytes = 16 * 1024 * 1024;
    p.memory.fracStack = 0.9;
    p.memory.fracStride = 0.1;
    p.memory.fracRandom = 0.0;
    p.deps.srcReadyProb = 0.8;
    return p;
}

/** Programs per round: a round runs every (benchmark, scheme) job on
 *  each of its trace seeds, enough jobs that one slow job does not set
 *  the round's p90. */
constexpr std::uint64_t kSeedsPerRound = 2;

/** Round @p round: every (benchmark, scheme) job on each of the
 *  round's trace seeds; the schemes of one benchmark share a trace. */
std::vector<SimJob>
roundJobs(const Params &p, std::uint64_t round)
{
    std::vector<std::pair<Profile, std::vector<std::string>>> grid;
    std::uint64_t insts = 0;
    if (p.workload == "sim-int") {
        const std::vector<std::string> schemes = {"base", "dcg", "ddcg",
                                                  "cgooo"};
        grid = {{profileByName("gzip"), schemes},
                {profileByName("perlbmk"), schemes}};
        insts = 400'000;
    } else {
        grid = {{profileByName("mcf"), {"base", "plb-ext"}},
                {profileByName("art"), {"base", "plb-ext"}},
                {icacheStormProfile(), {"base", "dcg"}}};
        insts = 200'000;
    }
    if (p.smoke)
        insts = 20'000;

    std::vector<SimJob> jobs;
    for (std::uint64_t k = 0; k < kSeedsPerRound; ++k) {
        const std::uint64_t seed =
            repetitionSeed(p.seed, round * kSeedsPerRound + k);
        for (const auto &[profile, schemes] : grid) {
            for (const std::string &s : schemes) {
                SimJob j;
                j.name = profile.name + "/" + s;
                j.profile = profile;
                j.config = table1Config(s);
                j.config.seed = seed;
                j.insts = insts;
                j.warmup = insts / 10;
                jobs.push_back(std::move(j));
            }
        }
    }
    return jobs;
}

/** Whole rounds of untraced jobs, back to back. */
struct Phase
{
    std::vector<Window> rounds;
    std::vector<RunResult> firstRound;
    double wallSeconds = 0.0;
};

Phase
runRounds(const Params &p, double seconds, Report &rep)
{
    Phase ph;
    const auto begin = Clock::now();
    do {
        const std::vector<SimJob> jobs = roundJobs(p, ph.rounds.size());
        Window w;
        std::map<std::string, std::vector<RunResult>> byBench;
        for (const SimJob &job : jobs) {
            const auto t0 = Clock::now();
            const RunResult r = runSimulator(job);
            const double s = secondsSince(t0);
            rep.attempt(1);
            ++w.jobs;
            w.seconds += s;
            w.latencyMs.push_back(s * 1e3);
            w.instructions += r.instructions + job.warmup;
            w.cycles += r.cycles;
            byBench[job.profile.name + "@" +
                    std::to_string(job.config.seed)]
                .push_back(r);
            if (ph.rounds.empty())
                ph.firstRound.push_back(r);
        }
        for (const auto &[trace, results] : byBench)
            checkSchemeInvariants(rep, results);
        ph.rounds.push_back(std::move(w));
    } while (secondsSince(begin) < seconds);
    ph.wallSeconds = secondsSince(begin);

    // Outside the timed phase: a rerun is bit-identical.
    const SimJob again = roundJobs(p, 0).back();
    rep.check(resultsBytes({runSimulator(again)}) ==
                  resultsBytes({ph.firstRound.back()}),
              "rerun of " + again.name + " is bit-identical");
    checkDigest(rep, p, digestHex(resultsBytes(ph.firstRound)));
    return ph;
}

} // namespace

void
runSimWorkload(const Params &p, Report &rep, Tracer &tr)
{
    // Set-up: build the first round and construct each job's simulator.
    std::vector<double> setup;
    for (int i = 0; i < kSetupReps; ++i) {
        const auto t0 = Clock::now();
        for (const SimJob &j : roundJobs(p, 0))
            const Simulator built(j.profile, j.config);
        setup.push_back(secondsSince(t0));
    }

    if (!p.traced) {
        const Phase ph = runRounds(p, p.seconds, rep);
        reportEndToEnd(rep, Throughput{setup, ph.rounds, 0.0});
        return;
    }

    // Traced: half the time untraced, then the first round again
    // through the traced stack; the untraced first round is the
    // overhead reference.
    const Phase ph = runRounds(p, p.seconds / 2, rep);
    const std::vector<SimJob> jobs = roundJobs(p, 0);
    const std::int64_t t0 = nowNs();
    const std::uint64_t root = tr.reserve();
    const double traced =
        reportStackLayers(rep, p, jobs, ph.firstRound, tr, root);
    tr.add(Span{root, 0, "traced.round", p.workload, t0, nowNs(), 1, false});

    std::vector<double> jobMs;
    double busy = 0.0;
    for (const Window &w : ph.rounds) {
        jobMs.insert(jobMs.end(), w.latencyMs.begin(), w.latencyMs.end());
        busy += w.seconds;
    }
    rep.metric("trace.overhead_pct",
               (traced / ph.rounds[0].seconds - 1.0) * 100.0, "%");
    rep.metric("sim.job_ms_p50", percentile(jobMs, 0.5), "ms");
    rep.metric("sim.job_ms_max", percentile(jobMs, 1.0), "ms");
    rep.metric("workers.busy_s", busy, "s");
    rep.metric("workers.util", busy / ph.wallSeconds, "frac");
    rep.metric("workers.tail_frac", 0.0, "frac");
    rep.metric("jobs.simulated", static_cast<double>(jobMs.size()),
               "count");
    rep.metric("jobs.hit_frac", 0.0, "frac");
    reportNoService(rep);
}

} // namespace dcgbench
