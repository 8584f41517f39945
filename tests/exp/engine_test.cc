/**
 * Tests for the parallel experiment engine: determinism across worker
 * counts and execution orders, cache behaviour, stat capture, and the
 * grouping of timing-identical jobs into one fused timing run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "exp/engine.hh"
#include "exp/grid.hh"
#include "sim/presets.hh"
#include "trace/spec2000.hh"

using namespace dcg;
using namespace dcg::exp;

namespace {

// Short runs keep the full suite fast; long enough that every scheme
// actually gates something.
constexpr std::uint64_t kInsts = 2000;
constexpr std::uint64_t kWarmup = 500;

std::vector<Job>
smallGrid()
{
    std::vector<Job> jobs;
    for (const char *name : {"gzip", "mcf", "equake"}) {
        for (const char *s : {"base", "dcg", "plb-ext"}) {
            jobs.push_back(makeJob(profileByName(name), table1Config(s),
                                   kInsts, kWarmup));
        }
    }
    return jobs;
}

void
expectBitIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.totalEnergyPJ, b.totalEnergyPJ);
    EXPECT_EQ(a.avgPowerW, b.avgPowerW);
    for (unsigned c = 0; c < kNumPowerComponents; ++c)
        EXPECT_EQ(a.componentPJ[c], b.componentPJ[c]);
    EXPECT_EQ(a.intUnitsPJ, b.intUnitsPJ);
    EXPECT_EQ(a.fpUnitsPJ, b.fpUnitsPJ);
    EXPECT_EQ(a.latchPJ, b.latchPJ);
    EXPECT_EQ(a.dcachePJ, b.dcachePJ);
    EXPECT_EQ(a.resultBusPJ, b.resultBusPJ);
    EXPECT_EQ(a.intUnitUtil, b.intUnitUtil);
    EXPECT_EQ(a.fpUnitUtil, b.fpUnitUtil);
    EXPECT_EQ(a.latchUtil, b.latchUtil);
    EXPECT_EQ(a.dcachePortUtil, b.dcachePortUtil);
    EXPECT_EQ(a.resultBusUtil, b.resultBusUtil);
    EXPECT_EQ(a.branchAccuracy, b.branchAccuracy);
    EXPECT_EQ(a.l1dMissRate, b.l1dMissRate);
    EXPECT_EQ(a.extraStats, b.extraStats);
}

} // namespace

TEST(Engine, ParallelMatchesSerialBitExactly)
{
    const auto jobs = smallGrid();
    Engine serial(1);
    Engine parallel(4);
    const auto s = serial.run(jobs);
    const auto p = parallel.run(jobs);
    ASSERT_EQ(s.size(), jobs.size());
    ASSERT_EQ(p.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectBitIdentical(s[i], p[i]);
}

TEST(Engine, ExecutionOrderDoesNotChangeResults)
{
    auto jobs = smallGrid();
    Engine forward(2);
    const auto fwd = forward.run(jobs);

    auto reversed = jobs;
    std::reverse(reversed.begin(), reversed.end());
    Engine backward(2);
    const auto bwd = backward.run(reversed);

    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectBitIdentical(fwd[i], bwd[jobs.size() - 1 - i]);
}

TEST(Engine, CacheReturnsSharedBaselineWithoutResimulating)
{
    Engine engine(2);
    const Job base = makeJob(profileByName("gzip"),
                             table1Config("base"), kInsts,
                             kWarmup);
    const Job dcg = makeJob(profileByName("gzip"),
                            table1Config("dcg"), kInsts,
                            kWarmup);

    const auto first = engine.run({base, dcg});
    EXPECT_EQ(engine.cacheMisses(), 2u);
    EXPECT_EQ(engine.cacheHits(), 0u);

    // A second figure needing the same baseline hits the cache.
    const auto second = engine.run({base});
    EXPECT_EQ(engine.cacheMisses(), 2u);
    EXPECT_EQ(engine.cacheHits(), 1u);
    expectBitIdentical(first[0], second[0]);

    // Duplicates inside one batch are simulated once too.
    Engine fresh(4);
    fresh.run({base, base, base, base});
    EXPECT_EQ(fresh.cacheMisses(), 1u);
    EXPECT_EQ(fresh.cacheHits(), 3u);
}

TEST(Engine, GridSharesBaselineAcrossRequests)
{
    Engine engine(2);
    GridRequest dcg_only;
    dcg_only.benchmarks = {"gzip", "mcf"};
    dcg_only.instructions = kInsts;
    dcg_only.warmup = kWarmup;

    GridRequest plb = dcg_only;
    plb.schemes = {"plb-ext"};

    const auto grid_a = runGrid(engine, dcg_only);
    ASSERT_EQ(grid_a.size(), 2u);
    EXPECT_EQ(engine.cacheMisses(), 4u);  // 2 base + 2 dcg

    // Second request re-uses both baselines; only PLB runs are new.
    const auto grid_b = runGrid(engine, plb);
    EXPECT_EQ(engine.cacheMisses(), 6u);
    EXPECT_EQ(engine.cacheHits(), 2u);
    expectBitIdentical(grid_a[0].base(), grid_b[0].base());
    expectBitIdentical(grid_a[1].base(), grid_b[1].base());
}

TEST(Engine, ResultsComeBackInRequestOrder)
{
    Engine engine(3);
    const auto jobs = smallGrid();
    const auto results = engine.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(results[i].benchmark, jobs[i].profile.name);
        EXPECT_EQ(results[i].scheme, jobs[i].config.scheme);
    }
}

TEST(Engine, CapturesRequestedStats)
{
    Engine engine(1);
    Job job = makeJob(profileByName("gzip"),
                      table1Config("plb-ext"), kInsts,
                      kWarmup);
    job.captureStats = {"plb.mode_transitions", "no.such.stat"};
    const RunResult r = engine.runOne(job);
    ASSERT_EQ(r.extraStats.size(), 2u);
    EXPECT_TRUE(r.extraStats.count("plb.mode_transitions"));
    // Unknown names record 0, matching StatRegistry::lookup().
    EXPECT_EQ(r.extraStats.at("no.such.stat"), 0.0);
}

TEST(Engine, WorkerCountResolution)
{
    EXPECT_GE(Engine::defaultJobs(), 1u);
    Engine five(5);
    EXPECT_EQ(five.workers(), 5u);
    Engine fallback(0);
    EXPECT_EQ(fallback.workers(), Engine::defaultJobs());
}

TEST(Engine, ConcurrentDuplicateJobsSimulateExactlyOnce)
{
    // Many threads race runOne() on a single key: exactly one claims
    // the cache slot and simulates; the rest either share its
    // in-flight execution or hit the finished entry. Either way the
    // results are bit-identical and only one simulation runs.
    constexpr unsigned kThreads = 16;
    Engine engine(4);
    const Job job = makeJob(profileByName("gzip"),
                            table1Config("dcg"), kInsts,
                            kWarmup);

    std::vector<RunResult> results(kThreads);
    std::vector<RunOutcome> outcomes(kThreads, RunOutcome::Simulated);
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            ++ready;
            while (!go.load(std::memory_order_acquire)) {
            }
            results[i] = engine.runOne(job, &outcomes[i]);
        });
    }
    while (ready.load() != kThreads) {
    }
    go.store(true, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(engine.simulations(), 1u);
    EXPECT_EQ(engine.cacheMisses(), 1u);
    EXPECT_EQ(engine.cacheHits(), kThreads - 1);
    EXPECT_EQ(engine.cacheSize(), 1u);

    unsigned simulated = 0;
    for (RunOutcome o : outcomes) {
        EXPECT_TRUE(o == RunOutcome::Simulated ||
                    o == RunOutcome::Shared || o == RunOutcome::MemHit);
        if (o == RunOutcome::Simulated)
            ++simulated;
    }
    EXPECT_EQ(simulated, 1u);
    for (unsigned i = 1; i < kThreads; ++i)
        expectBitIdentical(results[0], results[i]);
}

TEST(Engine, TryCachedPeeksWithoutBlockingOrSimulating)
{
    Engine engine(1);
    const Job job = makeJob(profileByName("gzip"),
                            table1Config("base"), kInsts,
                            kWarmup);
    RunResult peeked;
    EXPECT_FALSE(engine.tryCached(job, peeked));
    EXPECT_EQ(engine.simulations(), 0u);

    const RunResult r = engine.runOne(job);
    ASSERT_TRUE(engine.tryCached(job, peeked));
    expectBitIdentical(r, peeked);
    EXPECT_EQ(engine.cacheHits(), 1u);
    EXPECT_EQ(engine.simulations(), 1u);
}

TEST(Engine, AdoptStoredCountsOneDiskHitAndWarmsTheCache)
{
    const Job job = makeJob(profileByName("gzip"),
                            table1Config("dcg"), kInsts,
                            kWarmup);
    const RunResult stored = Engine(1).runOne(job);

    Engine engine(1);
    engine.adoptStored(job, stored);
    EXPECT_EQ(engine.diskHits(), 1u);
    EXPECT_EQ(engine.cacheMisses(), 1u);
    EXPECT_EQ(engine.simulations(), 0u);

    // The adopted record is a warm entry from then on, and adopting
    // the key again counts a hit, not a second disk hit.
    RunResult peeked;
    ASSERT_TRUE(engine.tryCached(job, peeked));
    expectBitIdentical(stored, peeked);
    engine.adoptStored(job, stored);
    expectBitIdentical(stored, engine.runOne(job));
    EXPECT_EQ(engine.diskHits(), 1u);
    EXPECT_EQ(engine.cacheHits(), 3u);
    EXPECT_EQ(engine.simulations(), 0u);
}

namespace {

/** Set/clear DCG_JOBS for one scope, restoring the old value after. */
class ScopedDcgJobs
{
  public:
    explicit ScopedDcgJobs(const char *value)
    {
        const char *old = std::getenv("DCG_JOBS");
        if (old)
            saved = old;
        had = old != nullptr;
        if (value)
            ::setenv("DCG_JOBS", value, 1);
        else
            ::unsetenv("DCG_JOBS");
    }

    ~ScopedDcgJobs()
    {
        if (had)
            ::setenv("DCG_JOBS", saved.c_str(), 1);
        else
            ::unsetenv("DCG_JOBS");
    }

  private:
    std::string saved;
    bool had = false;
};

} // namespace

TEST(Engine, DefaultJobsHonoursValidDcgJobs)
{
    ScopedDcgJobs env("3");
    EXPECT_EQ(Engine::defaultJobs(), 3u);
    Engine engine(0);
    EXPECT_EQ(engine.workers(), 3u);
}

TEST(Engine, DefaultJobsRejectsInvalidDcgJobs)
{
    // Satellite hardening: garbage, zero and negative DCG_JOBS values
    // fall back to the hardware default (with a warning) instead of
    // being silently coerced into some other worker count.
    unsigned fallback;
    {
        ScopedDcgJobs env(nullptr);
        fallback = Engine::defaultJobs();
    }
    ASSERT_GE(fallback, 1u);

    for (const char *bad : {"banana", "0", "-4", "3garbage", ""}) {
        ScopedDcgJobs env(bad);
        EXPECT_EQ(Engine::defaultJobs(), fallback)
            << "DCG_JOBS='" << bad << "'";
    }
}

TEST(Engine, ClearCacheForcesResimulation)
{
    Engine engine(1);
    const Job job = makeJob(profileByName("gzip"),
                            table1Config("base"), kInsts,
                            kWarmup);
    const RunResult a = engine.runOne(job);
    engine.clearCache();
    EXPECT_EQ(engine.cacheSize(), 0u);
    const RunResult b = engine.runOne(job);
    EXPECT_EQ(engine.cacheMisses(), 2u);
    expectBitIdentical(a, b);
}

TEST(Engine, LifecycleEvictToKeepsRecentlyUsedEntries)
{
    Engine engine(1);
    const Job a = makeJob(profileByName("gzip"),
                          table1Config("base"), kInsts,
                          kWarmup);
    const Job b = makeJob(profileByName("gzip"),
                          table1Config("dcg"), kInsts,
                          kWarmup);
    const Job c = makeJob(profileByName("mcf"),
                          table1Config("dcg"), kInsts,
                          kWarmup);
    engine.runOne(a);
    engine.runOne(b);
    engine.runOne(c);
    ASSERT_EQ(engine.cacheSize(), 3u);
    const std::uint64_t full = engine.bytes();
    ASSERT_GT(full, 0u);

    // Touch 'a' so 'b' becomes the least recently used slot.
    engine.runOne(a);

    EXPECT_EQ(engine.evictTo(full - 1), 1u);
    EXPECT_EQ(engine.cacheSize(), 2u);
    EXPECT_LT(engine.bytes(), full);
    RunResult out;
    EXPECT_TRUE(engine.tryCached(a, out));
    EXPECT_TRUE(engine.tryCached(c, out));
    EXPECT_FALSE(engine.tryCached(b, out));

    // Evicting everything empties the accounting too.
    EXPECT_EQ(engine.evictTo(0), 2u);
    EXPECT_EQ(engine.bytes(), 0u);
    EXPECT_EQ(engine.cacheSize(), 0u);
}

namespace {

/** In-memory store that answers a fixed set of keys and logs puts. */
class FakeStore final : public ResultStoreBase
{
  public:
    void
    seed(const Job &job, const RunResult &r)
    {
        records[jobKey(job)] = r;
    }

    bool
    get(const std::string &key, RunResult &out) override
    {
        std::lock_guard<std::mutex> lk(m);
        const auto it = records.find(key);
        if (it == records.end())
            return false;
        out = it->second;
        return true;
    }

    void
    put(const std::string &key, const RunResult &r) override
    {
        std::lock_guard<std::mutex> lk(m);
        ++puts;
        records[key] = r;
    }

    std::size_t
    putCount()
    {
        std::lock_guard<std::mutex> lk(m);
        return puts;
    }

  private:
    std::mutex m;
    std::map<std::string, RunResult> records;
    std::size_t puts = 0;
};

Job
smallJob(const char *bench, const char *scheme)
{
    return makeJob(profileByName(bench), table1Config(scheme), kInsts,
                   kWarmup);
}

/**
 * gzip: base, dcg, ddcg and a duplicate dcg share one timing run, and
 * plb-ext runs alone. mcf: base (pre-cached), cgooo and dcg share one,
 * and plb-orig runs alone. The store answers gzip/ddcg.
 */
std::vector<Job>
mixedBatch()
{
    return {smallJob("gzip", "base"), smallJob("gzip", "dcg"),
            smallJob("gzip", "plb-ext"), smallJob("gzip", "ddcg"),
            smallJob("gzip", "dcg"), smallJob("mcf", "base"),
            smallJob("mcf", "cgooo"), smallJob("mcf", "plb-orig"),
            smallJob("mcf", "dcg")};
}

constexpr std::size_t kStoreAnswered = 3;
constexpr std::size_t kPreCached = 5;

/** What the fake store hands back: recognisably not simulated. */
RunResult
storedResult()
{
    RunResult r;
    r.benchmark = "gzip";
    r.scheme = "ddcg";
    r.cycles = 42;
    return r;
}

struct MixedRun
{
    std::vector<RunResult> results;
    std::uint64_t hits, diskHits, simulations, timingRuns;
    std::size_t puts;
};

MixedRun
runMixedBatch(unsigned workers)
{
    const std::vector<Job> jobs = mixedBatch();
    auto store = std::make_shared<FakeStore>();
    store->seed(jobs[kStoreAnswered], storedResult());
    Engine engine(workers);
    engine.attachStore(store);
    engine.runOne(jobs[kPreCached]);
    const std::vector<RunResult> results = engine.run(jobs);
    return {results, engine.cacheHits(), engine.diskHits(),
            engine.simulations(), engine.timingRuns(), store->putCount()};
}

} // namespace

TEST(EngineGrouping, MixedBatchCountsEachJobExactlyOnce)
{
    const std::vector<Job> jobs = mixedBatch();
    for (const unsigned workers : {1u, 4u}) {
        const MixedRun run = runMixedBatch(workers);
        // Hits: the duplicate gzip/dcg and the pre-cached mcf/base.
        EXPECT_EQ(run.hits, 2u) << workers;
        EXPECT_EQ(run.diskHits, 1u) << workers;
        // 1 pre-cache + gzip {base, dcg} + plb-ext + mcf {cgooo, dcg}
        // + plb-orig.
        EXPECT_EQ(run.simulations, 7u) << workers;
        // Pre-cache, gzip group, plb-ext, mcf group, plb-orig.
        EXPECT_EQ(run.timingRuns, 5u) << workers;
        // Only simulated keys are written back.
        EXPECT_EQ(run.puts, 7u) << workers;

        ASSERT_EQ(run.results.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(run.results[i].benchmark, jobs[i].profile.name);
            EXPECT_EQ(run.results[i].scheme, jobs[i].config.scheme);
        }
        EXPECT_EQ(run.results[kStoreAnswered].cycles, 42u);
        expectBitIdentical(run.results[1], run.results[4]);
    }
}

TEST(EngineGrouping, FusedBatchIsBitIdenticalToSoloRuns)
{
    const std::vector<Job> jobs = mixedBatch();
    const MixedRun serial = runMixedBatch(1);
    const MixedRun parallel = runMixedBatch(4);

    // runOne never fuses: each job is its own timing run.
    Engine solo(1);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expectBitIdentical(serial.results[i], parallel.results[i]);
        if (i != kStoreAnswered)
            expectBitIdentical(serial.results[i], solo.runOne(jobs[i]));
    }
    EXPECT_EQ(solo.timingRuns(), solo.simulations());
}

TEST(EngineGrouping, CapturedStatsComeFromEachLane)
{
    Job dcg = smallJob("gzip", "dcg");
    dcg.captureStats = {"dcg.toggles.IntAlu", "core.cycles"};
    Job base = smallJob("gzip", "base");
    base.captureStats = {"dcg.toggles.IntAlu"};

    Engine fused(1);
    const std::vector<RunResult> r = fused.run({dcg, base});
    EXPECT_EQ(fused.timingRuns(), 1u);
    Engine solo(1);
    expectBitIdentical(r[0], solo.runOne(dcg));
    expectBitIdentical(r[1], solo.runOne(base));
    EXPECT_GT(r[0].extraStats.at("dcg.toggles.IntAlu"), 0.0);
    EXPECT_EQ(r[1].extraStats.at("dcg.toggles.IntAlu"), 0.0);
}

TEST(EngineGrouping, RunOneRacingAFusedRunSimulatesTheSharedKeyOnce)
{
    // A fused run() and a runOne() race for gzip/dcg while a second,
    // overlapping fused run() races for gzip/base. Every key must be
    // simulated exactly once, and claim-publish-wait must keep the
    // overlapping items from waiting on each other.
    const std::vector<Job> fusedA = {smallJob("gzip", "base"),
                                     smallJob("gzip", "dcg"),
                                     smallJob("gzip", "ddcg")};
    const std::vector<Job> fusedB = {smallJob("gzip", "cgooo"),
                                     smallJob("gzip", "base")};
    const Job single = smallJob("gzip", "dcg");

    Engine reference(1);
    const RunResult want = reference.runOne(single);

    for (int round = 0; round < 8; ++round) {
        Engine engine(2);
        std::vector<RunResult> a, b;
        RunResult one;
        std::atomic<int> ready{0};
        auto start = [&] {
            ++ready;
            while (ready.load() < 3) {
            }
        };
        std::thread ta([&] { start(); a = engine.run(fusedA); });
        std::thread tb([&] { start(); b = engine.run(fusedB); });
        std::thread tc([&] { start(); one = engine.runOne(single); });
        ta.join();
        tb.join();
        tc.join();

        // Four distinct keys; the other two requests are hits.
        EXPECT_EQ(engine.simulations(), 4u);
        EXPECT_EQ(engine.cacheHits(), 2u);
        EXPECT_GE(engine.timingRuns(), 2u);
        EXPECT_LE(engine.timingRuns(), 3u);  // one per caller
        expectBitIdentical(a[1], want);
        expectBitIdentical(one, want);
        expectBitIdentical(a[0], b[1]);
    }
}

TEST(Engine, ClearCacheResetsByteAccounting)
{
    Engine engine(1);
    const Job job = makeJob(profileByName("gzip"),
                            table1Config("base"), kInsts,
                            kWarmup);
    engine.runOne(job);
    EXPECT_GT(engine.bytes(), 0u);
    engine.clearCache();
    EXPECT_EQ(engine.bytes(), 0u);
}
