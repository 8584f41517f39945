/** Tests for the deterministic PRNG and the table-driven samplers. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "trace/spec2000.hh"

using namespace dcg;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng r(0);
    // SplitMix expansion must not produce the degenerate all-zero state.
    std::uint64_t acc = 0;
    for (int i = 0; i < 16; ++i)
        acc |= r.next();
    EXPECT_NE(acc, 0u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, DoubleMeanNearHalf)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(3);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(r.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedCoversRange)
{
    Rng r(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = r.uniformInt(3, 10);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 10u);
        saw_lo |= v == 3;
        saw_hi |= v == 10;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricMeanMatchesTheory)
{
    Rng r(19);
    const double p = 0.25;
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.geometric(p);
    // E[failures before success] = (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, GeometricHonoursCap)
{
    Rng r(23);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LE(r.geometric(0.01, 5), 5u);
}

TEST(Rng, GeometricPEqualOneIsZero)
{
    Rng r(29);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.geometric(1.0), 0u);
}

TEST(DiscreteSampler, RespectsWeights)
{
    Rng r(31);
    DiscreteSampler s({1.0, 3.0, 0.0, 6.0});
    std::vector<int> counts(4, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[s.sample(r)];
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(DiscreteSampler, ProbabilityAccessorsNormalised)
{
    DiscreteSampler s({2.0, 2.0, 4.0});
    EXPECT_DOUBLE_EQ(s.probability(0), 0.25);
    EXPECT_DOUBLE_EQ(s.probability(1), 0.25);
    EXPECT_DOUBLE_EQ(s.probability(2), 0.5);
    EXPECT_EQ(s.size(), 3u);
}

TEST(DiscreteSampler, SingleBucketAlwaysSampled)
{
    Rng r(37);
    DiscreteSampler s({42.0});
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(s.sample(r), 0u);
}

// ---------------------------------------------------------------------
// Table-driven samplers: every answer must equal the reference code's
// (Rng::geometricAt, DiscreteSampler::scan, Rng::bernoulli) on the
// same draw, and sample() must consume exactly the reference's draws.
// ---------------------------------------------------------------------

namespace {

/** Both ends of every DrawTable bucket plus @p inside seeded points. */
std::vector<std::uint64_t>
bucketProbes(unsigned inside, std::uint64_t seed)
{
    constexpr unsigned kShift = 64 - DrawTable::kBits;
    Rng r(seed);
    std::vector<std::uint64_t> xs;
    xs.reserve(DrawTable::kBuckets * (2 + inside));
    for (std::uint64_t b = 0; b < DrawTable::kBuckets; ++b) {
        const std::uint64_t lo = b << kShift;
        xs.push_back(lo);
        xs.push_back(lo | ((std::uint64_t{1} << kShift) - 1));
        for (unsigned i = 0; i < inside; ++i)
            xs.push_back(lo | (r.next() >> DrawTable::kBits));
    }
    return xs;
}

void
expectGeometricExact(double p, unsigned cap, unsigned inside)
{
    const GeometricSampler s(p, cap);
    const double l = std::log1p(-p);
    std::size_t bad = 0;
    for (std::uint64_t x : bucketProbes(inside, 5))
        bad += s.at(x) != Rng::geometricAt(Rng::toUnit(x), l, cap);
    EXPECT_EQ(bad, 0u) << "p " << p << " cap " << cap;

    Rng a(77), b(77);
    for (int i = 0; i < 2000; ++i)
        ASSERT_EQ(s.sample(a), b.geometric(p, cap)) << "p " << p;
    EXPECT_EQ(a.next(), b.next()) << "draws out of step, p " << p;
}

void
expectDiscreteExact(const std::vector<double> &weights, unsigned inside)
{
    const DiscreteSampler s(weights);
    std::size_t bad = 0;
    for (std::uint64_t x : bucketProbes(inside, 9))
        bad += s.at(x) != s.scan(Rng::toUnit(x));
    EXPECT_EQ(bad, 0u);
    EXPECT_LT(s.drawTable().straddling(), s.size());

    Rng a(79), b(79);
    for (int i = 0; i < 2000; ++i)
        ASSERT_EQ(s.sample(a), s.scan(b.nextDouble()));
    EXPECT_EQ(a.next(), b.next()) << "draws out of step";
}

} // namespace

TEST(Rng, DrawsBelowIsTheNextDoubleComparison)
{
    const auto check = [](double p) {
        const std::uint64_t t = Rng::drawsBelow(p);
        ASSERT_GT(t, 0u);
        ASSERT_LE(t, std::uint64_t{1} << 53);
        // The last draw that passes and the first that fails.
        for (std::uint64_t m : {t - 1, t}) {
            if (m >= (std::uint64_t{1} << 53))
                continue;
            EXPECT_EQ(m < t, Rng::toUnit(m << 11) < p) << "p " << p;
        }
    };
    for (double p : {0.995, 0.005, 0.5, 0.3, 1.0 / 3.0, 1e-17,
                     1.0 - 0x1.0p-53})
        check(p);
    Rng r(41);
    for (int i = 0; i < 200; ++i)
        check(r.nextDouble());
    EXPECT_EQ(Rng::drawsBelow(0.0), 0u);
    EXPECT_EQ(Rng::drawsBelow(-1.0), 0u);
    EXPECT_EQ(Rng::drawsBelow(1.0), std::uint64_t{1} << 53);
    EXPECT_EQ(Rng::drawsBelow(7.0), std::uint64_t{1} << 53);
}

TEST(BernoulliSampler, MatchesBernoulliDrawForDraw)
{
    // Outside (0, 1) neither draws; NaN draws and is false in both.
    for (double p : {0.3, 0.5, 0.995, 0.005, 0.0, -0.5, 1.0, 2.0,
                     std::numeric_limits<double>::quiet_NaN()}) {
        const BernoulliSampler s(p);
        Rng a(43), b(43);
        for (int i = 0; i < 5000; ++i)
            ASSERT_EQ(s.sample(a), b.bernoulli(p)) << "p " << p;
        EXPECT_EQ(a.next(), b.next()) << "draws out of step, p " << p;
    }
}

TEST(GeometricSampler, NoDrawAtOrAboveOne)
{
    for (double p : {1.0, 1.5}) {
        const GeometricSampler s(p, 10);
        Rng a(47), b(47);
        for (int i = 0; i < 100; ++i)
            EXPECT_EQ(s.sample(a), 0u);
        EXPECT_EQ(a.next(), b.next()) << "p " << p << " drew";
    }
}

TEST(GeometricSampler, AtOrBelowZeroDiesLikeGeometric)
{
    Rng r(53);
    EXPECT_DEATH(GeometricSampler(0.0, 10).sample(r), "p <= 0");
    EXPECT_DEATH(GeometricSampler(-0.5, 10).sample(r), "p <= 0");
}

TEST(GeometricSampler, MatchesClosedFormAtEveryBucket)
{
    // Sparse and dense thresholds, values past a byte (left to the
    // closed form), cap 0, and p near both ends of (0, 1).
    const std::pair<double, unsigned> cases[] = {
        {0.25, 1u << 20}, {0.18, 47}, {0.95, 47}, {0.5, 0}, {1e-6, 1000},
        {1e-12, 3}, {0.999999, 5}, {1.0 - 0x1.0p-53, 2}, {0.01, 300}};
    for (const auto &[p, cap] : cases)
        expectGeometricExact(p, cap, 16);
}

TEST(DiscreteSampler, MatchesScanAtEveryBucket)
{
    expectDiscreteExact({1.0, 3.0, 0.0, 6.0}, 16);
    expectDiscreteExact({0.0, 0.0, 5.0}, 16);
    expectDiscreteExact({1.0, 1e-12, 1.0}, 16);
    std::vector<double> many(300, 1.0);   // indices past a byte
    many[7] = 0.0;
    const DiscreteSampler s(many);
    for (std::uint64_t x : bucketProbes(4, 11))
        ASSERT_EQ(s.at(x), s.scan(Rng::toUnit(x)));
}

TEST(DiscreteSampler, BoundsOnBucketEdgesStraddleNothing)
{
    // 1/2, 1/4 and 3/1024 are bucket edges: a bound there splits no
    // bucket, and zero weights repeat a bound without splitting one.
    for (const std::vector<double> &w :
         {std::vector<double>{1.0, 1.0}, {1.0, 0.0, 3.0, 0.0},
          {3.0, 1021.0}}) {
        expectDiscreteExact(w, 16);
        EXPECT_EQ(DiscreteSampler(w).drawTable().straddling(), 0u);
    }
}

/**
 * Every sampler the trace generator builds for a SPEC profile: the
 * high- and low-phase dependence distances and memory mixes, and the
 * instruction mix.
 */
class SamplerExactness : public ::testing::TestWithParam<std::string> {};

TEST_P(SamplerExactness, TablesMatchReferenceOnEveryBucket)
{
    const Profile prof = profileByName(GetParam());
    const unsigned cap = prof.deps.depDistCap - 1;
    for (double p : {prof.deps.depGeoP,
                     std::min(0.95, prof.deps.depGeoP *
                                    prof.phases.lowGeoScale)}) {
        expectGeometricExact(p, cap, 128);
        EXPECT_LT(GeometricSampler(p, cap).drawTable().straddling(),
                  DrawTable::kBuckets / 16) << "p " << p;
    }

    expectDiscreteExact({prof.mix.begin(), prof.mix.end()}, 128);
    const MemoryBehavior &mb = prof.memory;
    expectDiscreteExact({mb.fracStack, mb.fracStride, mb.fracRandom}, 128);
    const double boosted = std::min(1.0, mb.fracRandom *
                                    prof.phases.lowMissScale);
    const double scale = (1.0 - boosted) / (mb.fracStack + mb.fracStride);
    expectDiscreteExact({mb.fracStack * scale, mb.fracStride * scale,
                         boosted}, 128);
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecProfiles, SamplerExactness, ::testing::ValuesIn(allSpecNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });
