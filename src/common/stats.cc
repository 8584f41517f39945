#include "common/stats.hh"

#include <iomanip>
#include <ostream>

#include "common/log.hh"

namespace dcg {

void
Distribution::sample(unsigned x)
{
    const unsigned idx = x < numBuckets() ? x : numBuckets();
    ++buckets[idx];
    ++total;
    sum += x;
}

void
Distribution::reset()
{
    for (auto &b : buckets)
        b = 0;
    total = 0;
    sum = 0.0;
}

double
StatRegistry::Entry::printable() const
{
    switch (kind) {
      case Kind::Counter:      return static_cast<double>(counter->value());
      case Kind::Scalar:       return scalar->value();
      case Kind::Average:      return average->mean();
      case Kind::Distribution: return dist->mean();
      case Kind::Formula:      return fml->value();
    }
    return 0.0;
}

StatRegistry::Entry &
StatRegistry::insert(const std::string &name, const std::string &desc,
                     Entry::Kind kind)
{
    auto [it, inserted] = entries.try_emplace(name);
    if (!inserted)
        panic("duplicate statistic '", name, "'");
    it->second.kind = kind;
    it->second.desc = desc;
    return it->second;
}

Counter &
StatRegistry::counter(const std::string &name, const std::string &desc)
{
    Entry &e = insert(name, desc, Entry::Kind::Counter);
    e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Scalar &
StatRegistry::scalar(const std::string &name, const std::string &desc)
{
    Entry &e = insert(name, desc, Entry::Kind::Scalar);
    e.scalar = std::make_unique<Scalar>();
    return *e.scalar;
}

Average &
StatRegistry::average(const std::string &name, const std::string &desc)
{
    Entry &e = insert(name, desc, Entry::Kind::Average);
    e.average = std::make_unique<Average>();
    return *e.average;
}

Distribution &
StatRegistry::distribution(const std::string &name, const std::string &desc,
                           unsigned num_buckets)
{
    Entry &e = insert(name, desc, Entry::Kind::Distribution);
    e.dist = std::make_unique<Distribution>(num_buckets);
    return *e.dist;
}

Formula &
StatRegistry::formula(const std::string &name, const std::string &desc)
{
    Entry &e = insert(name, desc, Entry::Kind::Formula);
    e.fml = std::make_unique<Formula>();
    return *e.fml;
}

double
StatRegistry::lookup(const std::string &name) const
{
    auto it = entries.find(name);
    return it == entries.end() ? 0.0 : it->second.printable();
}

bool
StatRegistry::contains(const std::string &name) const
{
    return entries.find(name) != entries.end();
}

void
StatRegistry::resetAll()
{
    for (auto &[name, e] : entries) {
        switch (e.kind) {
          case Entry::Kind::Counter:      e.counter->reset(); break;
          case Entry::Kind::Scalar:       e.scalar->reset(); break;
          case Entry::Kind::Average:      e.average->reset(); break;
          case Entry::Kind::Distribution: e.dist->reset(); break;
          case Entry::Kind::Formula:      break;
        }
    }
}

void
StatRegistry::dump(std::ostream &os) const
{
    dump(os, StatRegistry{});
}

void
StatRegistry::dump(std::ostream &os, const StatRegistry &other) const
{
    auto a = entries.begin();
    auto b = other.entries.begin();
    while (a != entries.end() || b != other.entries.end()) {
        if (a != entries.end() && b != other.entries.end() &&
            a->first == b->first)
            panic("statistic '", a->first, "' in both merged registries");
        auto &next = b == other.entries.end() ||
                     (a != entries.end() && a->first < b->first) ? a : b;
        os << std::left << std::setw(40) << next->first << ' '
           << std::setw(16) << std::setprecision(6)
           << next->second.printable() << " # " << next->second.desc
           << '\n';
        ++next;
    }
}

} // namespace dcg
