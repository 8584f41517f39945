/**
 * @file
 * The Table-1 memory hierarchy bundled as one object: split L1 I/D over
 * a unified L2 over main memory.
 */

#ifndef DCG_CACHE_HIERARCHY_HH
#define DCG_CACHE_HIERARCHY_HH

#include <memory>

#include "cache/cache.hh"
#include "common/stats.hh"

namespace dcg {

struct HierarchyConfig
{
    CacheGeometry l1i{64 * 1024, 2, 32, 1};
    CacheGeometry l1d{64 * 1024, 2, 32, 2};
    CacheGeometry l2{2 * 1024 * 1024, 8, 64, 12};
    Cycle memLatency = 100;

    bool operator==(const HierarchyConfig &) const = default;
};

class MemoryHierarchy
{
  public:
    MemoryHierarchy(const HierarchyConfig &config, StatRegistry &stats);

    Cache &icache() { return *l1i; }
    Cache &dcache() { return *l1d; }
    Cache &l2cache() { return *l2; }
    MainMemory &memory() { return *mem; }

  private:
    std::unique_ptr<MainMemory> mem;
    std::unique_ptr<Cache> l2;
    std::unique_ptr<Cache> l1i;
    std::unique_ptr<Cache> l1d;
};

} // namespace dcg

#endif // DCG_CACHE_HIERARCHY_HH
