/**
 * @file
 * Reporting, statistics and span bookkeeping shared by the workloads.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "dcgbench.hh"
#include "serve/json.hh"
#include "sim/report.hh"

namespace dcgbench {

using dcg::serve::JsonValue;

double
secondsSince(Clock::time_point begin)
{
    return std::chrono::duration<double>(Clock::now() - begin).count();
}

namespace {

/** All digits of a double: 17 significant digits round-trip. */
std::string
fullDigits(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics[name] = Value{value, unit};
    note(name, value, unit);
}

void
Report::note(const std::string &name, double value,
             const std::string &unit)
{
    lines.push_back(name + " " + fullDigits(value) + " " + unit);
}

void
Report::noteText(const std::string &name, const std::string &text)
{
    lines.push_back(name + " " + text);
}

void
Report::check(bool ok, const std::string &what)
{
    fail(ok ? 0 : 1, what);
}

void
Report::fail(std::uint64_t n, const std::string &what)
{
    if (n == 0)
        return;
    failed += n;
    std::cerr << "dcgbench: " << n << " failed: " << what << "\n";
}

bool
Report::print(const std::vector<MetricDef> &expected) const
{
    bool complete = true;
    for (const MetricDef &def : expected) {
        const auto it = metrics.find(def.name);
        if (it == metrics.end() || it->second.unit != def.unit ||
            !std::isfinite(it->second.value)) {
            std::cerr << "dcgbench: metric " << def.name
                      << " missing, not in " << def.unit
                      << " or not finite\n";
            complete = false;
        }
    }
    if (!complete || attempted == 0)
        return false;

    for (const std::string &line : lines)
        std::cout << line << "\n";
    std::cout << "ops_attempted " << attempted << "\n"
              << "ops_failed " << failed << "\n";

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) +
            ", \"metrics\": {";
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const Value &v = metrics.at(expected[i].name);
        json += (i ? ", " : "") + JsonValue::encodeString(expected[i].name) +
                ": {\"value\": " + fullDigits(v.value) +
                ", \"unit\": " + JsonValue::encodeString(v.unit) + "}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return true;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

std::uint64_t
repetitionSeed(std::uint64_t seed, std::uint64_t k)
{
    // SplitMix64 finaliser over (seed, k).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + k + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string
digestHex(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
resultsBytes(const std::vector<RunResult> &results)
{
    std::ostringstream os;
    dcg::writeResultsJson(results, os);
    return os.str();
}

void
checkDigest(Report &rep, const Params &p, const std::string &digest)
{
    rep.noteText("digest", digest);
    if (p.smoke || p.seed != 1)
        return;
    const std::string path =
        std::string(DCGBENCH_EXPECTED_DIR) + "/" + p.workload + ".digest";
    std::ifstream in(path);
    std::string want;
    in >> want;
    rep.check(want == digest, "seed-1 digest " + digest + " differs from " +
                                  path + " (" + want + ")");
}

std::string
workDir()
{
    const std::string dir = DCGBENCH_WORK_DIR;
    std::filesystem::create_directories(dir);
    return dir;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
reportEndToEnd(Report &rep, const Throughput &t)
{
    std::vector<double> instr, cycles, jobs, p50, p90, all;
    double seconds = 0.0;
    for (const Window &w : t.windows) {
        const double s = w.seconds > 0 ? w.seconds : 1e-9;
        instr.push_back(static_cast<double>(w.instructions) / s);
        cycles.push_back(static_cast<double>(w.cycles) / s);
        jobs.push_back(static_cast<double>(w.jobs) / s);
        p50.push_back(percentile(w.latencyMs, 0.50));
        p90.push_back(percentile(w.latencyMs, 0.90));
        all.insert(all.end(), w.latencyMs.begin(), w.latencyMs.end());
        seconds += w.seconds;
    }

    rep.metric("setup_s", median(t.setupSeconds), "s");
    rep.metric("peak_rss_mb", t.peakRssMb > 0 ? t.peakRssMb : peakRssMb(),
               "MB");
    rep.metric("sim_instr_per_s", median(instr), "instr/s");
    rep.metric("sim_cycles_per_s", median(cycles), "cycles/s");
    rep.metric("jobs_per_s", median(jobs), "1/s");
    rep.metric("job_p50_ms", median(p50), "ms");
    // Printed, not gated: host-noise spikes move a p90 by up to a third
    // between sets of runs on a shared 4-core machine.
    rep.note("job_p90_ms", median(p90), "ms");
    rep.note("windows", static_cast<double>(t.windows.size()), "count");
    rep.note("timed_s", seconds, "s");
    rep.note("job_samples", static_cast<double>(all.size()), "count");
    // Over the whole run; p99 has ten samples beyond it from 1000 up.
    if (all.size() >= 1000)
        rep.note("job_p99_all_ms", percentile(all, 0.99), "ms");
}

// ---------------------------------------------------------------------
// Tracer

std::uint64_t
Tracer::add(Span s)
{
    std::lock_guard<std::mutex> g(m);
    if (s.id == 0)
        s.id = nextId++;
    spans.push_back(std::move(s));
    return spans.back().id;
}

std::uint64_t
Tracer::addRollup(const std::string &name, std::uint64_t parent,
                  const std::string &job, const Rollup &r)
{
    Span s;
    s.parent = parent;
    s.name = name;
    s.job = job;
    s.startNs = std::max<std::int64_t>(r.firstNs, 0);
    s.endNs = s.startNs + r.totalNs;
    s.calls = r.calls;
    s.rollup = true;
    return add(std::move(s));
}

std::uint64_t
Tracer::reserve()
{
    std::lock_guard<std::mutex> g(m);
    return nextId++;
}

std::vector<Span>
Tracer::snapshot() const
{
    std::lock_guard<std::mutex> g(m);
    return spans;
}

double
Tracer::selfSeconds(const std::string &name) const
{
    const std::vector<Span> all = snapshot();
    std::map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : all)
        children[s.parent].push_back(&s);

    std::int64_t self = 0;
    for (const Span &s : all) {
        if (s.name != name)
            continue;
        std::int64_t rolled = 0;
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (const Span *c : children[s.id]) {
            if (c->rollup)
                rolled += c->endNs - c->startNs;
            else
                iv.emplace_back(std::max(c->startNs, s.startNs),
                                std::min(c->endNs, s.endNs));
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (const auto &[b, e] : iv) {
            const std::int64_t from = std::max(b, reach);
            if (e > from) {
                covered += e - from;
                reach = e;
            }
        }
        self += std::max<std::int64_t>(
            0, (s.endNs - s.startNs) - covered - rolled);
    }
    return static_cast<double>(self) * 1e-9;
}

double
Tracer::totalSeconds(const std::string &name) const
{
    std::int64_t total = 0;
    for (const Span &s : snapshot()) {
        if (s.name == name)
            total += s.endNs - s.startNs;
    }
    return static_cast<double>(total) * 1e-9;
}

void
Tracer::write(const std::string &path) const
{
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path, std::ios::trunc);
    for (const Span &s : snapshot()) {
        out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"name\": " << JsonValue::encodeString(s.name)
            << ", \"start_ns\": " << s.startNs
            << ", \"end_ns\": " << s.endNs
            << ", \"job\": " << JsonValue::encodeString(s.job)
            << ", \"calls\": " << s.calls << "}\n";
    }
    if (!out)
        std::cerr << "dcgbench: cannot write " << path << "\n";
}

} // namespace dcgbench
