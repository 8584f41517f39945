/**
 * @file
 * Lightweight statistics package in the spirit of gem5's Stats.
 *
 * Modules create named statistics inside a StatRegistry; the registry
 * can be dumped as a sorted text report. Statistics are owned by the
 * registry (stable addresses), so modules keep raw references.
 */

#ifndef DCG_COMMON_STATS_HH
#define DCG_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dcg {

/** Monotonically increasing event counter. */
class Counter
{
  public:
    void operator++() { ++val; }
    void operator++(int) { ++val; }
    void operator+=(std::uint64_t n) { val += n; }
    /** Fold-back hook: overwrite with an externally accumulated count. */
    void set(std::uint64_t n) { val = n; }
    std::uint64_t value() const { return val; }
    void reset() { val = 0; }

  private:
    std::uint64_t val = 0;
};

/** Arbitrary floating-point scalar (accumulated energy, etc.). */
class Scalar
{
  public:
    void operator+=(double x) { val += x; }
    void set(double x) { val = x; }
    double value() const { return val; }
    void reset() { val = 0.0; }

  private:
    double val = 0.0;
};

/** Running average of submitted samples. */
class Average
{
  public:
    void sample(double x) { sum += x; ++count; }
    /** Fold-back hook: overwrite with an externally accumulated sum. */
    void set(double s, std::uint64_t n) { sum = s; count = n; }
    double mean() const { return count ? sum / count : 0.0; }
    std::uint64_t samples() const { return count; }
    void reset() { sum = 0.0; count = 0; }

  private:
    double sum = 0.0;
    std::uint64_t count = 0;
};

/** Fixed-bucket histogram over [0, buckets); overflow goes last. */
class Distribution
{
  public:
    explicit Distribution(unsigned num_buckets = 16)
        : buckets(num_buckets + 1, 0) {}

    void sample(unsigned x);
    std::uint64_t bucket(unsigned i) const { return buckets.at(i); }
    std::uint64_t overflow() const { return buckets.back(); }
    std::uint64_t samples() const { return total; }
    double mean() const { return total ? sum / total : 0.0; }
    unsigned numBuckets() const
    { return static_cast<unsigned>(buckets.size()) - 1; }
    void reset();

  private:
    std::vector<std::uint64_t> buckets;
    std::uint64_t total = 0;
    double sum = 0.0;
};

/** Value computed on demand from other statistics. */
class Formula
{
  public:
    using Fn = std::function<double()>;
    void define(Fn fn) { eval = std::move(fn); }
    double value() const { return eval ? eval() : 0.0; }

  private:
    Fn eval;
};

/**
 * Owning registry of named statistics.
 *
 * Names are hierarchical by convention ("core.ipc", "power.latch.energy")
 * and must be unique; re-registering a name panics so modules catch
 * wiring errors immediately.
 */
class StatRegistry
{
  public:
    Counter &counter(const std::string &name, const std::string &desc);
    Scalar &scalar(const std::string &name, const std::string &desc);
    Average &average(const std::string &name, const std::string &desc);
    Distribution &distribution(const std::string &name,
                               const std::string &desc,
                               unsigned num_buckets);
    Formula &formula(const std::string &name, const std::string &desc);

    /** Look up a statistic's printable value; 0 if absent. */
    double lookup(const std::string &name) const;

    /** True if a statistic with this name exists. */
    bool contains(const std::string &name) const;

    /** Reset all resettable statistics (formulas are unaffected). */
    void resetAll();

    /** Dump "name value # desc" lines, sorted by name. */
    void dump(std::ostream &os) const;

    /**
     * Dump this registry and @p other as one, sorted by name (a
     * simulator's timing registry merged with one scheme lane's). A
     * name registered in both panics.
     */
    void dump(std::ostream &os, const StatRegistry &other) const;

    std::size_t size() const { return entries.size(); }

  private:
    struct Entry
    {
        enum class Kind { Counter, Scalar, Average, Distribution, Formula };
        Kind kind;
        std::string desc;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Scalar> scalar;
        std::unique_ptr<Average> average;
        std::unique_ptr<Distribution> dist;
        std::unique_ptr<Formula> fml;
        double printable() const;
    };

    Entry &insert(const std::string &name, const std::string &desc,
                  Entry::Kind kind);

    std::map<std::string, Entry> entries;
};

} // namespace dcg

#endif // DCG_COMMON_STATS_HH
