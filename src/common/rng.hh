/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * We deliberately avoid <random> engines in the hot path: xoshiro256**
 * is fast, has well-studied statistical quality, and — critically for a
 * simulator — its output is bit-identical across standard libraries, so
 * experiments reproduce everywhere.
 */

#ifndef DCG_COMMON_RNG_HH
#define DCG_COMMON_RNG_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dcg {

/** xoshiro256** PRNG with SplitMix64 seeding. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    // The draw primitives are inline: the trace generator makes
    // several draws per micro-op, which makes call overhead visible
    // in whole-simulator profiles.

    /** Uniform 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double nextDouble() { return toUnit(next()); }

    /** The double nextDouble() makes of the next() value @p x. */
    static double
    toUnit(std::uint64_t x)
    {
        // 53 high bits -> [0, 1) with full double precision.
        return static_cast<double>(x >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) using rejection-free mapping. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        // Lemire's multiply-shift mapping; the tiny modulo bias is
        // irrelevant for workload synthesis.
        const std::uint64_t x = next();
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(x) * bound) >> 64);
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * The number of draws whose nextDouble() value lies below @p u,
     * counted by their 53 high bits m (the value is m * 2^-53):
     * ceil(u * 2^53) for u clamped to [0, 1], exact because the scale
     * is a power of two.
     */
    static std::uint64_t drawsBelow(double u);

    /**
     * One draw, true when its 53 high bits are below @p threshold:
     * below(drawsBelow(p)) is bernoulli(p) for 0 < p < 1 as one
     * integer test, the same draw and the same outcome.
     */
    bool below(std::uint64_t threshold) { return (next() >> 11) < threshold; }

    /**
     * Geometric number of failures before first success,
     * P(k) = (1-p)^k p. Returns values in [0, cap].
     */
    unsigned geometric(double p, unsigned cap = 1u << 20);

    /**
     * The closed form behind geometric(): the value for the uniform
     * @p u, given log1pNegP = std::log1p(-p) with 0 < p < 1.
     */
    static unsigned geometricAt(double u, double log1pNegP, unsigned cap);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
};

/**
 * One byte per range ("bucket") of Rng::next() values, indexed by the
 * value's top kBits bits. The samplers below store the answer shared
 * by every draw in a bucket, or kStraddles when the answer changes
 * inside the bucket (or does not fit a byte); a straddling draw is
 * answered by the sampler's reference code from the same value, so a
 * table-driven sampler consumes the same draws and returns the same
 * values as its reference.
 */
class DrawTable
{
  public:
    static constexpr unsigned kBits = 10;
    static constexpr std::size_t kBuckets = std::size_t{1} << kBits;
    static constexpr std::uint8_t kStraddles = 0xff;

    DrawTable() { entry.fill(kStraddles); }

    /** The entry for the next() value @p x. */
    std::uint8_t
    operator[](std::uint64_t x) const
    {
        return entry[x >> (64 - kBits)];
    }

    /**
     * Store @p value, if it fits below kStraddles, in every bucket
     * whose draws x all have from <= Rng::toUnit(x) < to.
     */
    void fill(double from, double to, unsigned value);

    /** Buckets left to the reference code. */
    std::size_t straddling() const;

  private:
    std::array<std::uint8_t, kBuckets> entry;
};

/**
 * Sampler for a fixed discrete distribution (e.g. an instruction mix).
 * A DrawTable answers most draws with one load; the linear scan over
 * the cumulative bounds is the reference and answers the rest. A
 * bucket is exact by comparison alone: when no bound lies inside it,
 * the scan returns one index for every draw in it.
 */
class DiscreteSampler
{
  public:
    /** @param weights non-negative weights; need not sum to one. */
    explicit DiscreteSampler(const std::vector<double> &weights);

    /** Draw an index in [0, size). Inline: one draw per micro-op. */
    unsigned sample(Rng &rng) const { return at(rng.next()); }

    /** The index sample() returns for the next() value @p x. */
    unsigned
    at(std::uint64_t x) const
    {
        const std::uint8_t i = table[x];
        return i != DrawTable::kStraddles ? i : scan(Rng::toUnit(x));
    }

    /** The reference: the first index whose cumulative bound exceeds u. */
    unsigned
    scan(double u) const
    {
        for (unsigned i = 0; i < cumulative.size(); ++i) {
            if (u < cumulative[i])
                return i;
        }
        return static_cast<unsigned>(cumulative.size() - 1);
    }

    /** Normalised probability of index @p i. */
    double probability(unsigned i) const;

    unsigned size() const { return cumulative.empty()
        ? 0 : static_cast<unsigned>(cumulative.size()); }

    const DrawTable &drawTable() const { return table; }

  private:
    std::vector<double> cumulative;
    DrawTable table;
};

/**
 * Rng::bernoulli(p) for one fixed p as one integer test: the same
 * draws, the same outcomes.
 */
class BernoulliSampler
{
  public:
    explicit BernoulliSampler(double p)
        : p(p), threshold(Rng::drawsBelow(p)), drawn(p > 0.0 && p < 1.0)
    {}

    bool
    sample(Rng &rng) const
    {
        // p outside (0, 1): bernoulli() answers, without a draw.
        return drawn ? rng.below(threshold) : rng.bernoulli(p);
    }

  private:
    double p;
    std::uint64_t threshold;
    bool drawn;
};

/**
 * Rng::geometric(p, cap) for one fixed (p, cap), table-driven: the
 * same draws, the same values. The closed form is
 * k = min(cap, floor(log1p(-u) / log1p(-p))), so k steps up at the
 * thresholds t_k = -expm1(k * log1p(-p)). A bucket lying more than
 * kMargin from every t_k holds one k; any other draw takes the closed
 * form. The margin dwarfs the error of the closed form: log1p and the
 * division are good to a few ulp of a ratio below 37 / |log1p(-p)|,
 * which can move the floor only for u within ~2e-14 of a threshold,
 * and the computed thresholds are good to ~3e-16.
 */
class GeometricSampler
{
  public:
    GeometricSampler(double p, unsigned cap);

    unsigned
    sample(Rng &rng) const
    {
        // p outside (0, 1): geometric() answers without a draw (p >= 1)
        // or dies of its assertion.
        return drawn ? at(rng.next()) : rng.geometric(p, cap);
    }

    /** The value sample() returns for the next() value @p x. */
    unsigned
    at(std::uint64_t x) const
    {
        const std::uint8_t k = table[x];
        return k != DrawTable::kStraddles
            ? k : Rng::geometricAt(Rng::toUnit(x), log1pNegP, cap);
    }

    const DrawTable &drawTable() const { return table; }

  private:
    static constexpr double kMargin = 1e-9;

    double p;
    unsigned cap;
    bool drawn;   ///< 0 < p < 1: every sample() makes one draw
    double log1pNegP;
    DrawTable table;
};

} // namespace dcg

#endif // DCG_COMMON_RNG_HH
