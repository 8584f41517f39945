#include "common/rng.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace dcg {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // SplitMix64 expansion guarantees a non-zero state for any seed.
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitmix64(sm);
}

std::uint64_t
Rng::drawsBelow(double u)
{
    if (!(u > 0.0))
        return 0;
    return static_cast<std::uint64_t>(std::ceil(std::min(u, 1.0) * 0x1.0p53));
}

unsigned
Rng::geometric(double p, unsigned cap)
{
    if (p >= 1.0)
        return 0;
    DCG_ASSERT(p > 0.0, "geometric with p <= 0");
    return geometricAt(nextDouble(), std::log1p(-p), cap);
}

unsigned
Rng::geometricAt(double u, double log1pNegP, unsigned cap)
{
    const double k = std::floor(std::log1p(-u) / log1pNegP);
    if (k >= static_cast<double>(cap))
        return cap;
    return static_cast<unsigned>(k);
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    DCG_ASSERT(lo <= hi, "uniformInt with lo > hi");
    return lo + nextBounded(hi - lo + 1);
}

DiscreteSampler::DiscreteSampler(const std::vector<double> &weights)
{
    DCG_ASSERT(!weights.empty(), "empty discrete distribution");
    cumulative.reserve(weights.size());
    double total = 0.0;
    for (double w : weights) {
        DCG_ASSERT(w >= 0.0, "negative weight");
        total += w;
        cumulative.push_back(total);
    }
    DCG_ASSERT(total > 0.0, "all-zero weights");
    for (double &c : cumulative)
        c /= total;
    cumulative.back() = 1.0;

    // scan() returns i exactly on the draws with u in
    // [cumulative[i - 1], cumulative[i]).
    double from = 0.0;
    for (unsigned i = 0; i < cumulative.size(); ++i) {
        table.fill(from, cumulative[i], i);
        from = cumulative[i];
    }
}

double
DiscreteSampler::probability(unsigned i) const
{
    DCG_ASSERT(i < cumulative.size(), "probability index out of range");
    return i == 0 ? cumulative[0] : cumulative[i] - cumulative[i - 1];
}

GeometricSampler::GeometricSampler(double p, unsigned cap)
    : p(p), cap(cap), drawn(p > 0.0 && p < 1.0),
      log1pNegP(drawn ? std::log1p(-p) : 0.0)
{
    if (!drawn)
        return;
    // One expm1 per threshold, never a log1p per bucket: k holds the
    // buckets from t_k + kMargin to t_{k+1} - kMargin, and cap every
    // bucket past t_cap + kMargin. A k that does not fit a byte would
    // straddle anyway, so the walk stops there.
    double from = 0.0;
    for (unsigned k = 0; k < DrawTable::kStraddles && from < 1.0; ++k) {
        if (k == cap) {
            table.fill(from, 1.0, k);
            break;
        }
        const double t = -std::expm1((k + 1.0) * log1pNegP);
        table.fill(from, t - kMargin, k);
        from = t + kMargin;
    }
}

void
DrawTable::fill(double from, double to, unsigned value)
{
    if (value >= kStraddles)
        return;
    // A bucket spans 2^(53 - kBits) consecutive values of the draw's
    // 53 high bits m, and u < c exactly when m < Rng::drawsBelow(c).
    constexpr unsigned kShift = 53 - kBits;
    const std::uint64_t first =
        (Rng::drawsBelow(from) + (std::uint64_t{1} << kShift) - 1) >> kShift;
    const std::uint64_t end = Rng::drawsBelow(to) >> kShift;
    for (std::uint64_t b = first; b < end; ++b)
        entry[b] = static_cast<std::uint8_t>(value);
}

std::size_t
DrawTable::straddling() const
{
    return static_cast<std::size_t>(
        std::count(entry.begin(), entry.end(), kStraddles));
}

} // namespace dcg
