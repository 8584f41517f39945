/**
 * @file
 * Experiment engine: executes Jobs on a fixed-size worker pool with a
 * keyed result cache.
 *
 * Each Simulator is self-contained (no globals, per-instance RNG), so
 * jobs run concurrently without synchronisation; determinism comes
 * from the per-job seed derivation in job.hh, which makes results
 * bit-identical regardless of worker count or execution order.
 *
 * The cache is keyed by jobKey() and lives for the Engine's lifetime:
 * a figure binary that needs the baseline grid and the DCG grid
 * simulates each (benchmark, config) pair exactly once, even when
 * several batches — or several threads within one batch — request it.
 *
 * Work items: run() groups a batch by timingKey(). Jobs whose keys
 * differ only in scheme, per-scheme knobs, technology and capture
 * list, and whose schemes are all timing-neutral, form one item: one
 * Simulator whose lanes are the item's schemes (see sim/simulator.hh).
 * Every other job is an item of its own, and runOne() is an item of
 * one job. A worker runs an item in a fixed order:
 *
 *  1. claim every key of the item in the cache;
 *  2. answer the keys it owns from the attached store where it can;
 *  3. simulate the remaining owned keys as lanes of one timing run;
 *  4. put and publish those results;
 *  5. only then wait for keys another thread owns.
 *
 * Publishing before waiting is what keeps two overlapping items (or a
 * runOne() racing a run()) from waiting on each other. Every job still
 * counts exactly one cache hit, disk hit or simulation; timingRuns()
 * counts the Simulators actually run.
 *
 * Beneath the in-memory cache an optional ResultStoreBase can be
 * attached (see serve/store.hh for the on-disk implementation): a
 * memory miss consults the store before simulating, and freshly
 * simulated results are written back, so results survive across
 * processes and a service restart starts warm.
 *
 * Worker count resolution: explicit argument > DCG_JOBS environment
 * variable > std::thread::hardware_concurrency(). A garbage, zero or
 * negative DCG_JOBS is diagnosed with warn() and ignored rather than
 * silently coerced.
 */

#ifndef DCG_EXP_ENGINE_HH
#define DCG_EXP_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "exp/job.hh"

namespace dcg::exp {

/**
 * Slot for a persistent result layer beneath the in-memory cache.
 * Implementations must be safe to call from several worker threads
 * concurrently (the engine guarantees at most one caller per key at a
 * time, but different keys arrive in parallel). A corrupt or missing
 * record is a miss (get() returns false), never an error.
 */
class ResultStoreBase
{
  public:
    virtual ~ResultStoreBase() = default;

    /** Fetch the record for @p key into @p out; false = miss. */
    virtual bool get(const std::string &key, RunResult &out) = 0;

    /** Persist (or overwrite/repair) the record for @p key. */
    virtual void put(const std::string &key, const RunResult &r) = 0;
};

/** Where runOne() found (or produced) a result; for stats and tests. */
enum class RunOutcome {
    MemHit,     ///< served from the in-memory cache
    DiskHit,    ///< served from the attached persistent store
    Simulated,  ///< executed a fresh simulation
    Shared,     ///< waited on another thread's in-flight execution
};

class Engine
{
  public:
    /** @param jobs worker-thread count; 0 = defaultJobs(). */
    explicit Engine(unsigned jobs = 0);

    /**
     * Execute a batch. Results come back in request order; duplicate
     * (and previously cached) jobs are simulated only once.
     */
    std::vector<RunResult> run(const std::vector<Job> &jobs);

    /** Execute (or fetch from cache/store) a single job. */
    RunResult runOne(const Job &job, RunOutcome *outcome = nullptr);

    /**
     * Non-blocking peek: copy a *completed* in-memory cache entry for
     * @p job into @p out (counting a hit). False if absent or still
     * being simulated by another thread. Lets a server answer warm
     * resubmissions without occupying a worker.
     */
    bool tryCached(const Job &job, RunResult &out);

    /**
     * Count @p r, a record read from a store outside runOne() — a
     * server answering store hits on its event loop — as @p job's
     * disk hit, and publish it in the memory cache. A key already in
     * the cache counts a hit instead and keeps its entry, so every
     * job still counts exactly once.
     */
    void adoptStored(const Job &job, const RunResult &r);

    /**
     * Attach a persistent store beneath the in-memory cache (nullptr
     * detaches). Not thread-safe against concurrent run()s; attach
     * before submitting work.
     */
    void attachStore(std::shared_ptr<ResultStoreBase> s)
    {
        store = std::move(s);
    }

    unsigned workers() const { return numWorkers; }

    /// @name Cache observability (used by tests and run summaries)
    /// @{
    std::uint64_t cacheHits() const { return hits.load(); }
    std::uint64_t cacheMisses() const { return misses.load(); }
    /** Memory misses answered by the persistent store. */
    std::uint64_t diskHits() const { return diskHitCount.load(); }
    /** Jobs actually simulated (= misses - disk hits). */
    std::uint64_t simulations() const { return simCount.load(); }
    /** Timing runs executed; each simulates one or more jobs. */
    std::uint64_t timingRuns() const { return timingRunCount.load(); }
    std::size_t cacheSize() const;
    void clearCache();
    /** Estimated cache footprint (keys + results + slot overhead). */
    std::uint64_t bytes() const;
    /**
     * Drop completed least-recently-used entries until the estimate
     * is within @p budget; in-flight entries are never evicted (their
     * waiters hold the slot alive regardless). evictTo(0) empties the
     * cache. Returns the number of entries evicted.
     */
    std::size_t evictTo(std::uint64_t budgetBytes);
    /// @}

    /**
     * DCG_JOBS environment override, else hardware_concurrency.
     * Invalid DCG_JOBS values (non-numeric, zero, negative) warn and
     * fall back instead of being silently coerced.
     */
    static unsigned defaultJobs();

  private:
    /** One cache slot; built by the first requester, awaited by rest. */
    struct Entry
    {
        std::mutex m;
        std::condition_variable cv;
        /** Atomic so evictTo() can test completion without taking
         *  every slot's mutex under cacheMutex; still written under
         *  m before the cv notify, as the waiters require. */
        std::atomic<bool> done{false};
        RunResult result;
        std::uint64_t lastUse = 0;     ///< guarded by cacheMutex
        std::uint64_t approxBytes = 0; ///< guarded by cacheMutex
    };

    std::shared_ptr<Entry> lookupOrClaim(const std::string &key,
                                         bool &owner);
    /** Run one work item; results and outcomes in @p item's order. */
    std::vector<RunResult> runItem(const std::vector<const Job *> &item,
                                   std::vector<RunOutcome> &outcomes);
    void publish(const std::string &key,
                 const std::shared_ptr<Entry> &entry, const RunResult &r);
    /** One timing run with a lane per job in @p lanes. */
    static std::vector<RunResult>
    execute(const std::vector<const Job *> &lanes);

    unsigned numWorkers;
    mutable std::mutex cacheMutex;
    std::map<std::string, std::shared_ptr<Entry>> cache;
    std::uint64_t useClock = 0;    ///< guarded by cacheMutex
    std::uint64_t cacheBytes = 0;  ///< guarded by cacheMutex
    std::shared_ptr<ResultStoreBase> store;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> diskHitCount{0};
    std::atomic<std::uint64_t> simCount{0};
    std::atomic<std::uint64_t> timingRunCount{0};
};

/**
 * Process-wide engine shared by every driver in one binary, so the
 * figure harness, ablations and tools all draw from one result cache.
 */
Engine &sessionEngine();

} // namespace dcg::exp

#endif // DCG_EXP_ENGINE_HH
