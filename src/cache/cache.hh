/**
 * @file
 * Set-associative cache model with LRU replacement and latency
 * composition across levels (Table 1: 64 KB 2-way 2-cycle L1 I/D,
 * 2 MB 8-way 12-cycle L2, 100-cycle main memory).
 *
 * The model is access-latency oriented: each access returns the number
 * of cycles until its data is available. Misses to a line that is
 * already in flight merge with the outstanding fill (an MSHR-style
 * behaviour) instead of paying the full miss penalty again.
 */

#ifndef DCG_CACHE_CACHE_HH
#define DCG_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace dcg {

/** Abstract memory level that can service an access. */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /**
     * Service an access.
     * @param addr   byte address
     * @param is_write true for stores
     * @param now    current cycle (for in-flight miss merging)
     * @return cycles until the data is available
     */
    virtual Cycle access(Addr addr, bool is_write, Cycle now) = 0;
};

/** Fixed-latency terminal level (Table 1: infinite capacity, 100cy). */
class MainMemory : public MemLevel
{
  public:
    MainMemory(Cycle latency, StatRegistry &stats,
               const std::string &name = "mem");

    Cycle access(Addr addr, bool is_write, Cycle now) override;

    Cycle latency() const { return lat; }

  private:
    Cycle lat;
    Counter &accesses;
};

struct CacheGeometry
{
    std::uint64_t sizeBytes;
    unsigned assoc;
    unsigned lineBytes;
    Cycle hitLatency;

    /**
     * Miss-status holding registers: outstanding fills beyond this
     * count queue behind the earliest one. 0 = unlimited.
     */
    unsigned mshrs = 8;

    bool operator==(const CacheGeometry &) const = default;
};

class Cache : public MemLevel
{
  public:
    /**
     * @param name  stat prefix, e.g. "dcache"
     * @param geom  geometry parameters
     * @param next  next level (not owned); must outlive this cache
     */
    Cache(const std::string &name, const CacheGeometry &geom,
          MemLevel *next, StatRegistry &stats);

    Cycle access(Addr addr, bool is_write, Cycle now) override;

    /** Probe without side effects (no LRU update, no fill). */
    bool contains(Addr addr) const;

    /**
     * Install a line as already-resident without latency, statistics
     * or MSHR state — fast-forward warm-up only (see
     * Simulator::prewarmCaches).
     */
    void warmLine(Addr addr);

    double missRate() const;
    const CacheGeometry &geometry() const { return geom; }

    std::uint64_t numAccesses() const { return accesses.value(); }
    std::uint64_t numMisses() const { return misses.value(); }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
    };

    unsigned setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Addr lineAddr(Addr addr) const;

    /** Outstanding-fill housekeeping; returns MSHR queueing delay. */
    Cycle mshrDelay(Cycle now);

    CacheGeometry geom;
    MemLevel *nextLevel;
    std::vector<Line> lines;
    unsigned numSets;
    std::uint64_t useClock = 0;

    /** Outstanding fills: line address -> cycle the data arrives. */
    std::unordered_map<Addr, Cycle> inflight;

    /**
     * Latest scheduled fill-arrival cycle: once `now` passes it, no
     * fill is pending and the hit path can skip the inflight lookup
     * (the map may still hold completed entries, but a hit on one
     * returns plain hitLatency either way).
     */
    Cycle lastFillDone = 0;

    Counter &accesses;
    Counter &misses;
    Counter &writebacks;
    Counter &mshrStalls;
};

} // namespace dcg

#endif // DCG_CACHE_CACHE_HH
