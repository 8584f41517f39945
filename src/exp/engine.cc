#include "exp/engine.hh"

#include <cstdlib>
#include <thread>

#include "common/log.hh"
#include "common/options.hh"
#include "gating/registry.hh"

namespace dcg::exp {

namespace {

/**
 * Footprint estimate for one cache slot: fixed slot overhead (map
 * node, Entry, mutex/cv, RunResult value members) plus the variable
 * strings. Only feeds the eviction budget — it need not be exact,
 * just monotone in actual memory use.
 */
std::uint64_t
approxEntryBytes(const std::string &key, const RunResult &r)
{
    std::uint64_t n = 512;  // slot + RunResult fixed members
    n += key.size();
    n += r.benchmark.size() + r.scheme.size();
    for (const auto &[name, value] : r.extraStats) {
        (void)value;
        n += name.size() + 48;  // map node + double
    }
    return n;
}

} // namespace

Engine::Engine(unsigned jobs)
    : numWorkers(jobs ? jobs : defaultJobs())
{
}

unsigned
Engine::defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned fallback = hw ? hw : 1;
    const char *env = std::getenv("DCG_JOBS");
    if (!env || !*env)
        return fallback;
    std::int64_t v = 0;
    if (!Options::parseInt(env, v) || v <= 0) {
        warn("ignoring invalid DCG_JOBS='", env,
             "': expected a positive integer; using ", fallback,
             " worker(s)");
        return fallback;
    }
    return static_cast<unsigned>(v);
}

std::size_t
Engine::cacheSize() const
{
    std::lock_guard<std::mutex> lk(cacheMutex);
    return cache.size();
}

void
Engine::clearCache()
{
    std::lock_guard<std::mutex> lk(cacheMutex);
    cache.clear();
    cacheBytes = 0;
}

std::uint64_t
Engine::bytes() const
{
    std::lock_guard<std::mutex> lk(cacheMutex);
    return cacheBytes;
}

std::size_t
Engine::evictTo(std::uint64_t budgetBytes)
{
    std::lock_guard<std::mutex> lk(cacheMutex);
    std::size_t evicted = 0;
    while (cacheBytes > budgetBytes) {
        auto victim = cache.end();
        for (auto it = cache.begin(); it != cache.end(); ++it) {
            if (!it->second->done.load(std::memory_order_acquire))
                continue;  // in-flight: waiters park on this slot
            if (victim == cache.end() ||
                it->second->lastUse < victim->second->lastUse)
                victim = it;
        }
        if (victim == cache.end())
            break;  // only in-flight entries left
        cacheBytes -= std::min(cacheBytes,
                               victim->second->approxBytes);
        cache.erase(victim);
        ++evicted;
    }
    return evicted;
}

std::shared_ptr<Engine::Entry>
Engine::lookupOrClaim(const std::string &key, bool &owner)
{
    std::lock_guard<std::mutex> lk(cacheMutex);
    auto it = cache.find(key);
    if (it != cache.end()) {
        owner = false;
        ++hits;
        it->second->lastUse = ++useClock;
        return it->second;
    }
    owner = true;
    ++misses;
    auto entry = std::make_shared<Entry>();
    entry->lastUse = ++useClock;
    cache.emplace(key, entry);
    return entry;
}

std::vector<RunResult>
Engine::execute(const std::vector<const Job *> &lanes)
{
    // Every job gets its own deterministic RNG stream so results do
    // not depend on which worker runs it or in what order. The seed
    // ignores the scheme, so all lanes of one item share it.
    std::vector<SimConfig> configs;
    configs.reserve(lanes.size());
    for (const Job *job : lanes) {
        configs.push_back(job->config);
        configs.back().seed = deriveJobSeed(*job);
    }

    const Job &lead = *lanes.front();
    Simulator sim(lead.profile, configs);
    sim.run(lead.resolvedInstructions(), lead.resolvedWarmup());
    std::vector<RunResult> out;
    out.reserve(lanes.size());
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
        RunResult &r = out.emplace_back(sim.result(lane));
        for (const std::string &name : lanes[lane]->captureStats)
            r.extraStats[name] = sim.stat(name, lane);
    }
    return out;
}

bool
Engine::tryCached(const Job &job, RunResult &out)
{
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lk(cacheMutex);
        auto it = cache.find(jobKey(job));
        if (it == cache.end())
            return false;
        entry = it->second;
        entry->lastUse = ++useClock;
    }
    std::lock_guard<std::mutex> lk(entry->m);
    if (!entry->done)
        return false;
    ++hits;
    out = entry->result;
    return true;
}

void
Engine::adoptStored(const Job &job, const RunResult &r)
{
    const std::string key = jobKey(job);
    bool owner = false;
    const std::shared_ptr<Entry> entry = lookupOrClaim(key, owner);
    if (!owner)
        return;
    ++diskHitCount;
    publish(key, entry, r);
}

void
Engine::publish(const std::string &key, const std::shared_ptr<Entry> &entry,
                const RunResult &r)
{
    {
        std::lock_guard<std::mutex> lk(entry->m);
        entry->result = r;
        entry->done.store(true, std::memory_order_release);
    }
    entry->cv.notify_all();
    // Count the completed slot toward the eviction budget — but only
    // if an evictTo() racing with the completion has not already
    // dropped it.
    std::lock_guard<std::mutex> lk(cacheMutex);
    auto it = cache.find(key);
    if (it != cache.end() && it->second == entry) {
        entry->approxBytes = approxEntryBytes(key, r);
        cacheBytes += entry->approxBytes;
    }
}

std::vector<RunResult>
Engine::runItem(const std::vector<const Job *> &item,
                std::vector<RunOutcome> &outcomes)
{
    // 1. Claim every key. A key another thread already holds is a hit
    //    now, waited on in step 5.
    struct Claim
    {
        std::string key;
        std::shared_ptr<Entry> entry;
        bool owner = false;
    };
    std::vector<Claim> claims(item.size());
    outcomes.assign(item.size(), RunOutcome::Simulated);
    for (std::size_t i = 0; i < item.size(); ++i) {
        Claim &c = claims[i];
        c.key = jobKey(*item[i]);
        c.entry = lookupOrClaim(c.key, c.owner);
        if (!c.owner)
            outcomes[i] = c.entry->done.load(std::memory_order_acquire)
                ? RunOutcome::MemHit : RunOutcome::Shared;
    }

    // 2. Answer owned keys from the store; the rest become lanes.
    std::vector<RunResult> results(item.size());
    std::vector<std::size_t> lanes;
    for (std::size_t i = 0; i < item.size(); ++i) {
        if (!claims[i].owner)
            continue;
        if (store && store->get(claims[i].key, results[i])) {
            ++diskHitCount;
            outcomes[i] = RunOutcome::DiskHit;
            publish(claims[i].key, claims[i].entry, results[i]);
        } else {
            lanes.push_back(i);
        }
    }

    // 3-4. One timing run for every remaining owned key; put and
    //      publish each lane.
    if (!lanes.empty()) {
        std::vector<const Job *> jobs;
        jobs.reserve(lanes.size());
        for (std::size_t i : lanes)
            jobs.push_back(item[i]);
        std::vector<RunResult> simulated = execute(jobs);
        ++timingRunCount;
        for (std::size_t k = 0; k < lanes.size(); ++k) {
            const std::size_t i = lanes[k];
            results[i] = std::move(simulated[k]);
            ++simCount;
            if (store)
                store->put(claims[i].key, results[i]);
            publish(claims[i].key, claims[i].entry, results[i]);
        }
    }

    // 5. Only now wait on keys other threads own: waiting before
    //    publishing could deadlock two items that overlap.
    for (std::size_t i = 0; i < item.size(); ++i) {
        if (claims[i].owner)
            continue;
        Entry &e = *claims[i].entry;
        std::unique_lock<std::mutex> lk(e.m);
        e.cv.wait(lk, [&] { return e.done.load(); });
        results[i] = e.result;
    }
    return results;
}

RunResult
Engine::runOne(const Job &job, RunOutcome *outcome)
{
    std::vector<RunOutcome> outcomes;
    std::vector<RunResult> r = runItem({&job}, outcomes);
    if (outcome)
        *outcome = outcomes.front();
    return std::move(r.front());
}

std::vector<RunResult>
Engine::run(const std::vector<Job> &jobs)
{
    // Work items: timing-neutral jobs sharing a timing key run as
    // lanes of one Simulator; every other job runs alone.
    std::vector<std::vector<std::size_t>> items;
    std::map<std::string, std::size_t> itemOf;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto *entry = gating::schemes().find(jobs[i].config.scheme);
        if (!entry || !entry->info.timingNeutral) {
            items.push_back({i});
            continue;
        }
        const auto [it, fresh] =
            itemOf.try_emplace(timingKey(jobs[i]), items.size());
        if (fresh)
            items.emplace_back();
        items[it->second].push_back(i);
    }

    std::vector<RunResult> results(jobs.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        std::vector<const Job *> item;
        std::vector<RunOutcome> outcomes;
        for (std::size_t n; (n = next.fetch_add(1)) < items.size(); ) {
            item.clear();
            for (std::size_t i : items[n])
                item.push_back(&jobs[i]);
            std::vector<RunResult> out = runItem(item, outcomes);
            for (std::size_t k = 0; k < out.size(); ++k)
                results[items[n][k]] = std::move(out[k]);
        }
    };

    const auto nthreads = static_cast<unsigned>(
        std::min<std::size_t>(numWorkers, items.size()));
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < nthreads; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    return results;
}

Engine &
sessionEngine()
{
    static Engine engine;
    return engine;
}

} // namespace dcg::exp
