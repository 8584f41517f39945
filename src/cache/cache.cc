#include "cache/cache.hh"

#include <algorithm>

#include "common/log.hh"

namespace dcg {

MainMemory::MainMemory(Cycle latency, StatRegistry &stats,
                       const std::string &name)
    : lat(latency),
      accesses(stats.counter(name + ".accesses", "main memory accesses"))
{
}

Cycle
MainMemory::access(Addr addr, bool is_write, Cycle now)
{
    (void)addr;
    (void)is_write;
    (void)now;
    ++accesses;
    return lat;
}

Cache::Cache(const std::string &name, const CacheGeometry &geom_,
             MemLevel *next, StatRegistry &stats)
    : geom(geom_),
      nextLevel(next),
      accesses(stats.counter(name + ".accesses", "cache accesses")),
      misses(stats.counter(name + ".misses", "cache misses")),
      writebacks(stats.counter(name + ".writebacks",
                               "dirty lines evicted")),
      mshrStalls(stats.counter(name + ".mshr_stalls",
                               "misses delayed by full MSHRs"))
{
    DCG_ASSERT(nextLevel, "cache needs a next level");
    DCG_ASSERT(geom.lineBytes && !(geom.lineBytes & (geom.lineBytes - 1)),
               "line size must be a power of two");
    DCG_ASSERT(geom.assoc >= 1, "bad associativity");
    const std::uint64_t num_lines = geom.sizeBytes / geom.lineBytes;
    DCG_ASSERT(num_lines % geom.assoc == 0, "size/assoc mismatch");
    numSets = static_cast<unsigned>(num_lines / geom.assoc);
    DCG_ASSERT(numSets && !(numSets & (numSets - 1)),
               "set count must be a power of two");
    lines.resize(num_lines);
}

unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>(addr / geom.lineBytes) & (numSets - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr / geom.lineBytes / numSets;
}

Addr
Cache::lineAddr(Addr addr) const
{
    return addr & ~static_cast<Addr>(geom.lineBytes - 1);
}

bool
Cache::contains(Addr addr) const
{
    const unsigned base = setIndex(addr) * geom.assoc;
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < geom.assoc; ++w) {
        const Line &l = lines[base + w];
        if (l.valid && l.tag == tag)
            return true;
    }
    return false;
}

Cycle
Cache::access(Addr addr, bool is_write, Cycle now)
{
    ++accesses;
    const unsigned base = setIndex(addr) * geom.assoc;
    const Addr tag = tagOf(addr);

    Line *victim = &lines[base];
    for (unsigned w = 0; w < geom.assoc; ++w) {
        Line &l = lines[base + w];
        if (l.valid && l.tag == tag) {
            l.lastUse = ++useClock;
            l.dirty |= is_write;
            // A hit on a line whose fill is still in flight waits for
            // the fill (MSHR merge). Once every scheduled fill has
            // landed the lookup can't change the latency, so skip it.
            if (lastFillDone > now) {
                if (auto it = inflight.find(lineAddr(addr));
                    it != inflight.end()) {
                    if (it->second > now)
                        return geom.hitLatency + (it->second - now);
                    inflight.erase(it);
                }
            }
            return geom.hitLatency;
        }
        if (!l.valid) {
            victim = &l;
        } else if (victim->valid && l.lastUse < victim->lastUse) {
            victim = &l;
        }
    }

    // Miss: fetch from the next level (write-allocate for stores).
    ++misses;
    if (victim->valid && victim->dirty)
        ++writebacks;  // writeback bandwidth is not a bottleneck here

    const Cycle queue = mshrDelay(now);
    const Cycle fill = nextLevel->access(lineAddr(addr), false,
                                         now + queue + geom.hitLatency);
    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = tag;
    victim->lastUse = ++useClock;

    const Cycle total = geom.hitLatency + queue + fill;
    inflight[lineAddr(addr)] = now + total;
    lastFillDone = std::max(lastFillDone, now + total);
    if (inflight.size() > 4096) {
        // Opportunistic cleanup of completed fills.
        for (auto it = inflight.begin(); it != inflight.end();) {
            it = it->second <= now ? inflight.erase(it) : std::next(it);
        }
    }
    return total;
}

void
Cache::warmLine(Addr addr)
{
    const unsigned base = setIndex(addr) * geom.assoc;
    const Addr tag = tagOf(addr);
    Line *victim = &lines[base];
    for (unsigned w = 0; w < geom.assoc; ++w) {
        Line &l = lines[base + w];
        if (l.valid && l.tag == tag) {
            l.lastUse = ++useClock;
            return;
        }
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (victim->valid && l.lastUse < victim->lastUse)
            victim = &l;
    }
    victim->valid = true;
    victim->dirty = false;
    victim->tag = tag;
    victim->lastUse = ++useClock;
}

Cycle
Cache::mshrDelay(Cycle now)
{
    if (geom.mshrs == 0)
        return 0;
    unsigned outstanding = 0;
    Cycle earliest = kCycleNever;
    for (auto it = inflight.begin(); it != inflight.end();) {
        if (it->second <= now) {
            it = inflight.erase(it);
            continue;
        }
        ++outstanding;
        earliest = std::min(earliest, it->second);
        ++it;
    }
    if (outstanding < geom.mshrs)
        return 0;
    ++mshrStalls;
    return earliest > now ? earliest - now : 0;
}

double
Cache::missRate() const
{
    const double n = static_cast<double>(accesses.value());
    return n > 0 ? static_cast<double>(misses.value()) / n : 0.0;
}

} // namespace dcg
