/** Tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/rng.hh"

using namespace dcg;

namespace {

struct Harness
{
    StatRegistry stats;
    MainMemory mem{100, stats};
};

} // namespace

TEST(Cache, ColdMissThenHit)
{
    Harness h;
    Cache c("c", {1024, 2, 32, 2}, &h.mem, h.stats);
    EXPECT_EQ(c.access(0x1000, false, 0), 102u);  // 2 + 100
    EXPECT_EQ(c.access(0x1000, false, 200), 2u);  // now resident
    EXPECT_EQ(c.numMisses(), 1u);
    EXPECT_EQ(c.numAccesses(), 2u);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    Harness h;
    Cache c("c", {1024, 2, 32, 2}, &h.mem, h.stats);
    c.access(0x1000, false, 0);
    EXPECT_EQ(c.access(0x101f, false, 200), 2u);  // same 32B line
    EXPECT_EQ(c.access(0x1020, false, 200), 102u);  // next line misses
}

TEST(Cache, LruEvictionWithinSet)
{
    // 2-way, 4 sets of 32B lines -> addresses 128 apart share a set.
    Harness h;
    Cache c("c", {256, 2, 32, 1}, &h.mem, h.stats);
    c.access(0x0000, false, 0);
    c.access(0x0080, false, 200);
    c.access(0x0000, false, 400);   // touch: 0x0080 becomes LRU
    c.access(0x0100, false, 600);   // evicts 0x0080
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_FALSE(c.contains(0x0080));
    EXPECT_TRUE(c.contains(0x0100));
}

TEST(Cache, AssociativityHoldsConflictingLines)
{
    Harness h;
    Cache c("c", {256, 2, 32, 1}, &h.mem, h.stats);
    c.access(0x0000, false, 0);
    c.access(0x0080, false, 200);
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_TRUE(c.contains(0x0080));
}

TEST(Cache, WritebackCountedOnDirtyEviction)
{
    Harness h;
    Cache c("c", {256, 1, 32, 1}, &h.mem, h.stats);  // direct mapped
    c.access(0x0000, true, 0);          // dirty
    c.access(0x0100, false, 200);       // evicts dirty line
    EXPECT_EQ(h.stats.lookup("c.writebacks"), 1.0);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    Harness h;
    Cache c("c", {256, 1, 32, 1}, &h.mem, h.stats);
    c.access(0x0000, false, 0);
    c.access(0x0100, false, 200);
    EXPECT_EQ(h.stats.lookup("c.writebacks"), 0.0);
}

TEST(Cache, InflightMissMergesInsteadOfRefetching)
{
    Harness h;
    Cache c("c", {1024, 2, 32, 2}, &h.mem, h.stats);
    const Cycle lat0 = c.access(0x1000, false, 1000);
    EXPECT_EQ(lat0, 102u);
    // An access 10 cycles later to the same (in-flight) line waits for
    // the fill rather than paying a fresh miss.
    const Cycle lat1 = c.access(0x1004, false, 1010);
    EXPECT_EQ(lat1, 2u + (1000 + 102 - 1010));
    // Well after the fill it is a plain hit.
    EXPECT_EQ(c.access(0x1008, false, 5000), 2u);
    // Only one memory access was made.
    EXPECT_EQ(h.stats.lookup("mem.accesses"), 1.0);
}

TEST(Cache, MissRateComputed)
{
    Harness h;
    Cache c("c", {1024, 2, 32, 2}, &h.mem, h.stats);
    c.access(0x0, false, 0);
    c.access(0x0, false, 200);
    c.access(0x0, false, 300);
    c.access(0x0, false, 400);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.25);
}

TEST(Cache, WorkingSetLargerThanCacheThrashes)
{
    Harness h;
    Cache c("c", {4096, 2, 32, 1}, &h.mem, h.stats);
    Rng rng(1);
    // Random accesses over 16x the capacity: high miss rate.
    for (int i = 0; i < 4000; ++i)
        c.access(rng.nextBounded(64 * 1024) & ~31ull, false,
                 static_cast<Cycle>(10000 + i * 200));
    EXPECT_GT(c.missRate(), 0.7);
}

TEST(Cache, WorkingSetSmallerThanCacheSettles)
{
    Harness h;
    Cache c("c", {4096, 2, 32, 1}, &h.mem, h.stats);
    Rng rng(2);
    for (int i = 0; i < 8000; ++i)
        c.access(rng.nextBounded(2048) & ~31ull, false,
                 static_cast<Cycle>(10000 + i * 200));
    EXPECT_LT(c.missRate(), 0.05);  // only compulsory misses
}

TEST(Cache, BadGeometryDies)
{
    Harness h;
    EXPECT_DEATH(Cache("bad", {1000, 3, 33, 1}, &h.mem, h.stats),
                 "power of two");
}

TEST(MainMemory, FixedLatencyAndCounting)
{
    Harness h;
    EXPECT_EQ(h.mem.access(0x0, false, 0), 100u);
    EXPECT_EQ(h.mem.access(0x12345678, true, 99), 100u);
    EXPECT_EQ(h.stats.lookup("mem.accesses"), 2.0);
}

/** Parameterised geometry sweep: residency invariant for any shape. */
struct Geometry
{
    std::uint64_t size;
    unsigned assoc;
    unsigned line;
};

class CacheGeometrySweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometrySweep, SecondPassOverResidentSetAlwaysHits)
{
    const Geometry g = GetParam();
    Harness h;
    Cache c("c", {g.size, g.assoc, g.line, 1}, &h.mem, h.stats);
    // Touch exactly the cache capacity once, sequentially; a second
    // sequential pass must be all hits for LRU with power-of-two sets.
    for (Addr a = 0; a < g.size; a += g.line)
        c.access(a, false, a);
    const auto misses_first = c.numMisses();
    for (Addr a = 0; a < g.size; a += g.line)
        c.access(a, false, 1'000'000 + a);
    EXPECT_EQ(c.numMisses(), misses_first)
        << "size=" << g.size << " assoc=" << g.assoc;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheGeometrySweep,
    ::testing::Values(Geometry{1024, 1, 32}, Geometry{1024, 2, 32},
                      Geometry{4096, 4, 64}, Geometry{65536, 2, 32},
                      Geometry{65536, 8, 64}, Geometry{2097152, 8, 64}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return "s" + std::to_string(info.param.size) + "_w" +
               std::to_string(info.param.assoc) + "_l" +
               std::to_string(info.param.line);
    });

TEST(Cache, MshrLimitQueuesConcurrentMisses)
{
    Harness h;
    CacheGeometry g{1024, 2, 32, 2};
    g.mshrs = 1;
    Cache c("c", g, &h.mem, h.stats);
    // Two misses in the same cycle: the second waits for the first
    // fill's MSHR.
    const Cycle lat0 = c.access(0x1000, false, 0);
    const Cycle lat1 = c.access(0x2000, false, 0);
    EXPECT_EQ(lat0, 102u);
    EXPECT_GT(lat1, lat0);
    EXPECT_EQ(h.stats.lookup("c.mshr_stalls"), 1.0);
}

TEST(Cache, UnlimitedMshrsNeverQueue)
{
    Harness h;
    CacheGeometry g{4096, 2, 32, 2};
    g.mshrs = 0;
    Cache c("c", g, &h.mem, h.stats);
    for (Addr a = 0; a < 16 * 1024; a += 32)
        EXPECT_EQ(c.access(a, false, 0), 102u);
    EXPECT_EQ(h.stats.lookup("c.mshr_stalls"), 0.0);
}

TEST(Cache, GenerousMshrsDoNotQueueModestTraffic)
{
    Harness h;
    CacheGeometry g{4096, 2, 32, 2};
    g.mshrs = 8;
    Cache c("c", g, &h.mem, h.stats);
    // Misses spaced beyond the memory latency never overlap by 8.
    for (int i = 0; i < 32; ++i)
        c.access(static_cast<Addr>(i) * 4096, false,
                 static_cast<Cycle>(i) * 200);
    EXPECT_EQ(h.stats.lookup("c.mshr_stalls"), 0.0);
}

TEST(Cache, WarmLineInstallsWithoutStats)
{
    Harness h;
    Cache c("c", {1024, 2, 32, 2}, &h.mem, h.stats);
    c.warmLine(0x1000);
    EXPECT_TRUE(c.contains(0x1000));
    EXPECT_EQ(c.numAccesses(), 0u);
    EXPECT_EQ(c.numMisses(), 0u);
    EXPECT_EQ(c.access(0x1000, false, 100), 2u);  // plain hit
}
