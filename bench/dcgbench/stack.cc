/**
 * @file
 * The traced simulator stack: Simulator's loop re-assembled from the
 * public classes, with a span around every call into each layer, plus
 * component passes for the layers Core::tick calls internally (branch
 * prediction, the D-cache) and the layers a result travels through
 * after a simulation (result store, JSON codec).
 */

#include <unistd.h>

#include <bit>
#include <filesystem>
#include <set>

#include "common/log.hh"
#include "dcgbench.hh"
#include "gating/registry.hh"
#include "serve/json.hh"
#include "serve/store.hh"

namespace dcgbench {

using namespace dcg;

SimJob
simJobOf(const exp::Job &job)
{
    SimJob s;
    s.name = job.profile.name + "/" + job.config.scheme;
    s.profile = job.profile;
    s.config = job.config;
    s.config.seed = exp::deriveJobSeed(job);
    s.insts = job.resolvedInstructions();
    s.warmup = job.resolvedWarmup();
    return s;
}

RunResult
runSimulator(const SimJob &job)
{
    Simulator sim(job.profile, job.config);
    sim.run(job.insts, job.warmup);
    return sim.result();
}

void
checkSchemeInvariants(Report &rep, const std::vector<RunResult> &results)
{
    // Schemes that gate only what is provably idle: zero performance
    // impact, so cycle-identical to base on the same trace.
    static const std::set<std::string> zeroImpact = {"dcg", "ddcg",
                                                     "cgooo"};
    const RunResult *base = nullptr;
    for (const RunResult &r : results) {
        if (r.scheme == "base")
            base = &r;
    }
    if (!base) {
        rep.check(false, "no base run among the invariant inputs");
        return;
    }
    for (const RunResult &r : results) {
        const std::string who = r.benchmark + "/" + r.scheme;
        if (zeroImpact.count(r.scheme))
            rep.check(r.cycles == base->cycles,
                      who + " cycles differ from base");
        rep.check(r.totalEnergyPJ <= base->totalEnergyPJ,
                  who + " uses more energy than base");
        double sum = 0.0;
        for (const double pj : r.componentPJ)
            sum += pj;
        rep.check(sum == r.totalEnergyPJ,
                  who + " component energies do not sum to the total");
    }
}

namespace {

/** Cycles, committed instructions and total energy bit-identical. */
bool
sameSimulation(const RunResult &a, const RunResult &b)
{
    return a.cycles == b.cycles && a.instructions == b.instructions &&
           std::bit_cast<std::uint64_t>(a.totalEnergyPJ) ==
               std::bit_cast<std::uint64_t>(b.totalEnergyPJ);
}

/** Times every next() of the wrapped trace generator. */
class TimedSource final : public InstSource
{
  public:
    explicit TimedSource(InstSource &inner) : inner(inner) {}

    MicroOp
    next() override
    {
        const std::int64_t t0 = nowNs();
        const MicroOp op = inner.next();
        calls.add(t0, nowNs());
        return op;
    }

    Rollup calls;

  private:
    InstSource &inner;
};

/** Simulator::prewarmCaches through the public cache interface. */
void
prewarm(MemoryHierarchy &mem, const Profile &prof, const SimConfig &cfg)
{
    const Addr iline = cfg.mem.l1i.lineBytes;
    const Addr dline = cfg.mem.l1d.lineBytes;
    const Addr l2line = cfg.mem.l2.lineBytes;
    for (Addr a = 0; a < prof.codeFootprintBytes; a += iline)
        mem.icache().warmLine(TraceGenerator::kCodeBase + a);
    for (Addr a = 0; a < prof.codeFootprintBytes; a += l2line)
        mem.l2cache().warmLine(TraceGenerator::kCodeBase + a);
    for (Addr a = 0; a < prof.memory.stackBytes; a += dline)
        mem.dcache().warmLine(TraceGenerator::kDataBase + a);
    const Addr streamBase = TraceGenerator::kDataBase + 0x0100'0000;
    for (Addr a = 0; a < prof.memory.strideRegionBytes; a += dline)
        mem.dcache().warmLine(streamBase + a);
    for (Addr a = 0; a < prof.memory.strideRegionBytes; a += l2line)
        mem.l2cache().warmLine(streamBase + a);
    const Addr randBase = TraceGenerator::kDataBase + 0x4000'0000;
    if (prof.memory.randomRegionBytes <= cfg.mem.l2.sizeBytes) {
        for (Addr a = 0; a < prof.memory.randomRegionBytes; a += l2line)
            mem.l2cache().warmLine(randBase + a);
    }
}

/** Counts summed over the traced jobs. */
struct StackTotals
{
    std::uint64_t jobs = 0;
    std::uint64_t traceOps = 0;
    std::uint64_t ticked = 0;
    std::uint64_t skipped = 0;
    std::uint64_t measuredCycles = 0;
    std::uint64_t measuredInsts = 0;
    std::uint64_t fetchStall = 0;
    std::uint64_t l1iAcc = 0, l1iMiss = 0;
    std::uint64_t l1dAcc = 0, l1dMiss = 0;
    std::uint64_t l2Acc = 0, l2Miss = 0;

    struct PerScheme
    {
        std::int64_t gatingNs = 0;
        std::int64_t powerNs = 0;
        std::uint64_t ticked = 0;
    };
    std::map<std::string, PerScheme> schemes;
};

/** One job through the timed stack; spans go under @p parent. */
RunResult
runTraced(const SimJob &job, Tracer &tr, std::uint64_t parent,
          StackTotals &tot)
{
    const std::int64_t jobStart = nowNs();
    Rollup setup, pipeline, gating, power, skip;

    const SimConfig &cfg = job.config;
    StatRegistry stats;
    TraceGenerator gen(job.profile, cfg.seed);
    TimedSource src(gen);
    MemoryHierarchy mem(cfg.mem, stats);
    BranchPredictor bpred(cfg.bpred, stats);
    Core core(cfg.core, src, mem, bpred, stats);
    PowerModel pm(cfg.core, cfg.tech, stats, &mem.l2cache());
    const std::unique_ptr<GatingPolicy> policy =
        gating::makePolicy(cfg, stats);
    prewarm(mem, job.profile, cfg);
    setup.add(jobStart, nowNs());

    // Simulator::step with a timestamp between consecutive layer calls.
    std::uint64_t measured = 0;
    const std::uint64_t cap = (job.insts + job.warmup) * 100 + 1'000'000;
    auto stepUntil = [&](std::uint64_t target) {
        while (core.committedInsts() < target) {
            const std::int64_t t0 = nowNs();
            const Cycle k = cfg.skipAhead ? core.idleSkipAvailable() : 0;
            const std::int64_t t1 = nowNs();
            skip.add(t0, t1);
            if (k) {
                policy->skipIdle(core, k, pm);
                const std::int64_t t2 = nowNs();
                core.skipIdle(k);
                skip.add(t2, nowNs());
                gating.add(t1, t2);
                measured += k;
                tot.skipped += k;
            } else {
                policy->beginCycle(core);
                const std::int64_t t2 = nowNs();
                core.tick();
                const std::int64_t t3 = nowNs();
                const CycleActivity &act = core.activity();
                const GateState gates = policy->gates(act);
                const std::int64_t t4 = nowNs();
                pm.tick(act, gates);
                power.add(t4, nowNs());
                gating.add(t1, t2);
                pipeline.add(t2, t3);
                gating.add(t3, t4);
                ++measured;
                ++tot.ticked;
            }
            if (core.cycle() > cap)
                fatal("dcgbench: traced stack deadlocked on ", job.name);
        }
    };
    stepUntil(job.warmup);
    stats.resetAll();
    core.resetStats();
    pm.reset();
    measured = 0;
    stepUntil(job.insts);

    core.foldStats();
    pm.foldStats();
    RunResult r;
    r.benchmark = job.profile.name;
    r.scheme = policy->name();
    r.instructions = core.committedInsts();
    r.cycles = measured;
    r.totalEnergyPJ = pm.totalEnergyPJ();

    const std::uint64_t jobId = tr.reserve();
    tr.addRollup("setup", jobId, job.name, setup);
    const std::uint64_t pipeId =
        tr.addRollup("pipeline", jobId, job.name, pipeline);
    tr.addRollup("trace", pipeId, job.name, src.calls);
    tr.addRollup("gating", jobId, job.name, gating);
    tr.addRollup("power", jobId, job.name, power);
    tr.addRollup("skip", jobId, job.name, skip);
    tr.add(Span{jobId, parent, "stack.job", job.name, jobStart, nowNs(), 1,
                false});

    ++tot.jobs;
    tot.traceOps += src.calls.calls;
    tot.measuredCycles += measured;
    tot.measuredInsts += r.instructions;
    tot.fetchStall += core.stat(CoreStat::FetchStallCycles);
    tot.l1iAcc += mem.icache().numAccesses();
    tot.l1iMiss += mem.icache().numMisses();
    tot.l1dAcc += mem.dcache().numAccesses();
    tot.l1dMiss += mem.dcache().numMisses();
    tot.l2Acc += mem.l2cache().numAccesses();
    tot.l2Miss += mem.l2cache().numMisses();
    StackTotals::PerScheme &ps = tot.schemes[r.scheme];
    ps.gatingNs += gating.totalNs;
    ps.powerNs += power.totalNs;
    ps.ticked += pipeline.calls;
    return r;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Replay each distinct trace's micro-ops through a fresh branch
 *  predictor and a fresh memory hierarchy's D-cache. */
void
componentPasses(Report &rep, const Params &p,
                const std::vector<SimJob> &jobs)
{
    std::map<std::pair<std::string, std::uint64_t>, const SimJob *> kinds;
    for (const SimJob &j : jobs)
        kinds.emplace(std::make_pair(j.profile.name, j.config.seed), &j);
    const std::size_t budget = p.smoke ? 40'000 : 1'200'000;
    const std::size_t perKind =
        std::min<std::size_t>(200'000, budget / kinds.size());

    std::uint64_t lookups = 0, mispredicts = 0, accesses = 0;
    std::int64_t branchNs = 0, cacheNs = 0;
    std::vector<MicroOp> ops(perKind);
    for (const auto &[key, job] : kinds) {
        TraceGenerator gen(job->profile, job->config.seed);
        for (MicroOp &op : ops)
            op = gen.next();

        StatRegistry bstats;
        BranchPredictor bp(job->config.bpred, bstats);
        std::int64_t t0 = nowNs();
        for (const MicroOp &op : ops) {
            if (!op.isBranch())
                continue;
            const BranchPrediction pred = bp.predict(op.pc);
            mispredicts += !bp.resolve(op.pc, pred, op.taken, op.target);
            ++lookups;
        }
        branchNs += nowNs() - t0;

        StatRegistry cstats;
        MemoryHierarchy mem(job->config.mem, cstats);
        t0 = nowNs();
        Cycle now = 0;
        for (const MicroOp &op : ops) {
            ++now;
            if (!op.isMem())
                continue;
            mem.dcache().access(op.effAddr, op.isStore(), now);
            ++accesses;
        }
        cacheNs += nowNs() - t0;
    }
    rep.metric("branch.lookups", static_cast<double>(lookups), "count");
    rep.metric("branch.mispredict_frac",
               ratio(static_cast<double>(mispredicts),
                     static_cast<double>(lookups)),
               "frac");
    rep.metric("branch.ns_per_lookup",
               ratio(static_cast<double>(branchNs),
                     static_cast<double>(lookups)),
               "ns");
    rep.metric("cache.ns_per_access",
               ratio(static_cast<double>(cacheNs),
                     static_cast<double>(accesses)),
               "ns");
}

/** Store put/get and JSON encode/parse of the jobs' results. */
void
resultPasses(Report &rep, const Params &p,
             const std::vector<SimJob> &jobs,
             const std::vector<RunResult> &results)
{
    const std::size_t storeOps = p.smoke ? 16 : 64;
    const std::size_t jsonOps = p.smoke ? 32 : 256;

    const std::string dir = workDir() + "/store-pass-" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::int64_t putNs = 0, getNs = 0;
    {
        serve::ResultStore store(dir);
        for (std::size_t i = 0; i < storeOps; ++i) {
            const std::string key =
                jobs[i % jobs.size()].name + "#" + std::to_string(i);
            const std::int64_t t0 = nowNs();
            store.put(key, results[i % results.size()]);
            putNs += nowNs() - t0;
        }
        for (std::size_t i = 0; i < storeOps; ++i) {
            const std::string key =
                jobs[i % jobs.size()].name + "#" + std::to_string(i);
            RunResult back;
            const std::int64_t t0 = nowNs();
            const bool hit = store.get(key, back);
            getNs += nowNs() - t0;
            rep.check(hit && resultsBytes({back}) ==
                                 resultsBytes({results[i % results.size()]}),
                      "result store round trip of " + key);
        }
    }
    std::filesystem::remove_all(dir);

    std::int64_t encNs = 0, parseNs = 0;
    for (std::size_t i = 0; i < jsonOps; ++i) {
        const std::int64_t t0 = nowNs();
        const std::string text = resultsBytes({results[i % results.size()]});
        const std::int64_t t1 = nowNs();
        serve::JsonValue v;
        std::string err;
        const bool ok = serve::JsonValue::parse(text, v, err);
        parseNs += nowNs() - t1;
        encNs += t1 - t0;
        rep.check(ok, "results JSON parses: " + err);
    }
    const auto us = [](std::int64_t ns, std::size_t n) {
        return static_cast<double>(ns) * 1e-3 / static_cast<double>(n);
    };
    rep.metric("store.put_us", us(putNs, storeOps), "us");
    rep.metric("store.get_us", us(getNs, storeOps), "us");
    rep.metric("json.encode_us", us(encNs, jsonOps), "us");
    rep.metric("json.parse_us", us(parseNs, jsonOps), "us");
}

} // namespace

double
reportStackLayers(Report &rep, const Params &p,
                  const std::vector<SimJob> &jobs,
                  const std::vector<RunResult> &reference, Tracer &tr,
                  std::uint64_t parent)
{
    StackTotals tot;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const RunResult r = runTraced(jobs[i], tr, parent, tot);
        rep.check(sameSimulation(r, reference[i]),
                  "traced stack reproduces Simulator on " + jobs[i].name);
    }

    const double wall = tr.totalSeconds("stack.job");
    const double traceS = tr.selfSeconds("trace");
    const double pipeS = tr.selfSeconds("pipeline");
    const double gatingS = tr.selfSeconds("gating");
    const double powerS = tr.selfSeconds("power");
    const double skipS = tr.selfSeconds("skip");
    const double setupS = tr.selfSeconds("setup");
    const auto ticked = static_cast<double>(tot.ticked);
    const auto cycles = static_cast<double>(tot.ticked + tot.skipped);

    rep.metric("trace.self_s", traceS, "s");
    rep.metric("trace.ns_per_op",
               ratio(traceS * 1e9, static_cast<double>(tot.traceOps)), "ns");
    rep.metric("trace.coverage_frac",
               ratio(traceS + pipeS + gatingS + powerS + skipS + setupS,
                     wall),
               "frac");
    rep.note("stack.wall_s", wall, "s");
    // What one timed call adds to a span: read per-call ns against it.
    std::vector<double> clock;
    for (int i = 0; i < 1001; ++i) {
        const std::int64_t a = nowNs();
        clock.push_back(static_cast<double>(nowNs() - a));
    }
    rep.note("trace.clock_ns", median(clock), "ns");
    rep.metric("pipeline.self_s", pipeS, "s");
    rep.metric("pipeline.ns_per_cycle", ratio(pipeS * 1e9, ticked), "ns");
    rep.metric("pipeline.fetch_stall_frac",
               ratio(static_cast<double>(tot.fetchStall),
                     static_cast<double>(tot.measuredCycles)),
               "frac");
    rep.metric("gating.self_s", gatingS, "s");
    rep.metric("gating.ns_per_cycle", ratio(gatingS * 1e9, ticked), "ns");
    rep.metric("power.self_s", powerS, "s");
    rep.metric("power.ns_per_cycle", ratio(powerS * 1e9, ticked), "ns");
    for (const auto &[scheme, s] : tot.schemes) {
        const auto n = static_cast<double>(s.ticked);
        rep.note("gating." + scheme + ".ns_per_cycle",
                 ratio(static_cast<double>(s.gatingNs), n), "ns");
        rep.note("power." + scheme + ".ns_per_cycle",
                 ratio(static_cast<double>(s.powerNs), n), "ns");
    }
    rep.metric("cache.l1d_accesses", static_cast<double>(tot.l1dAcc),
               "count");
    rep.metric("cache.l1i_miss_frac",
               ratio(static_cast<double>(tot.l1iMiss),
                     static_cast<double>(tot.l1iAcc)),
               "frac");
    rep.metric("cache.l1d_miss_frac",
               ratio(static_cast<double>(tot.l1dMiss),
                     static_cast<double>(tot.l1dAcc)),
               "frac");
    rep.metric("cache.l2_miss_frac",
               ratio(static_cast<double>(tot.l2Miss),
                     static_cast<double>(tot.l2Acc)),
               "frac");
    rep.metric("sim.skip_self_s", skipS, "s");
    rep.metric("sim.skipped_cycle_frac",
               ratio(static_cast<double>(tot.skipped), cycles), "frac");
    rep.metric("sim.cycles_per_instr",
               ratio(static_cast<double>(tot.measuredCycles),
                     static_cast<double>(tot.measuredInsts)),
               "cycles/instr");
    rep.metric("sim.setup_ms_per_job",
               ratio(setupS * 1e3, static_cast<double>(tot.jobs)), "ms");

    componentPasses(rep, p, jobs);
    resultPasses(rep, p, jobs, reference);
    return wall;
}

void
reportNoService(Report &rep)
{
    rep.metric("serve.forwarded_frac", 0.0, "frac");
    for (const char *name :
         {"serve.forwards_inflight_peak", "serve.queue_depth_p99",
          "serve.busy_retries", "serve.mem_hits", "serve.disk_hits",
          "serve.replicas_written", "serve.replica_push_failures"})
        rep.metric(name, 0.0, "count");
}

} // namespace dcgbench
