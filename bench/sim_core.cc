/**
 * @file
 * sim_core — single-thread throughput driver for the simulator core.
 *
 * Two figures, each the p50 over --reps repeated runs:
 *
 *   ticks_per_sec      bare core: Core::tick over a synthetic trace,
 *                      no gating controller and no power model;
 *   instr_per_sec      the full stack (Simulator with DCG + power
 *                      accounting + idle skip-ahead), measured in
 *                      committed instructions per wall second.
 *
 * The measured point is appended to a BENCH_sim.json trajectory
 * (--json), and --baseline/--max-regression turn the run into a CI
 * gate: instr/s below baseline x (1 - max-regression) fails the run,
 * mirroring serve_load and BENCH_serve.json.
 *
 *   sim_core --insts=600000 --warmup=60000 --reps=5 --label=ci-sim \
 *            --json=BENCH_sim.json \
 *            --baseline=BENCH_sim.json --max-regression=0.2
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/options.hh"
#include "pipeline/core.hh"
#include "sim/presets.hh"
#include "sim/simulator.hh"
#include "trace/spec2000.hh"

using namespace dcg;

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedSec(Clock::time_point begin)
{
    return std::chrono::duration<double>(Clock::now() - begin).count();
}

/** Bare core: ticks per second until @p insts instructions commit. */
double
bareTicksPerSec(std::uint64_t insts, std::uint64_t seed)
{
    StatRegistry stats;
    TraceGenerator gen(profileByName("gzip"), seed);
    MemoryHierarchy mem(HierarchyConfig{}, stats);
    BranchPredictor bp(BranchPredictorConfig{}, stats);
    Core core(CoreConfig{}, gen, mem, bp, stats);
    const auto begin = Clock::now();
    while (core.committedInsts() < insts)
        core.tick();
    return static_cast<double>(core.cycle()) / elapsedSec(begin);
}

/**
 * Full stack: committed instructions per second, DCG + power. The
 * clock covers cache prewarm, warm-up and the measured run, so the
 * count does too: result().instructions holds only the measured part
 * (the counters reset after warm-up).
 */
double
fullInstrPerSec(std::uint64_t insts, std::uint64_t warmup,
                std::uint64_t seed)
{
    SimConfig cfg = table1Config("dcg");
    cfg.seed = seed;
    Simulator sim(profileByName("gzip"), cfg);
    const auto begin = Clock::now();
    sim.run(insts, warmup);
    return static_cast<double>(warmup + sim.result().instructions) /
           elapsedSec(begin);
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Append this run's entry to the --json trajectory file. */
void
persistEntry(const std::string &path, const JsonValue &entry)
{
    JsonValue doc;
    bool fresh = true;
    std::ifstream probe(path);
    if (probe.good()) {
        std::string err;
        if (JsonValue::parse(readFile(path), doc, err) &&
            doc.has("entries"))
            fresh = false;
        else
            warn("sim_core: ", path,
                 " is not a trajectory file; rewriting it");
    }
    if (fresh) {
        doc = JsonValue::object();
        doc.set("schema", JsonValue::integer(std::uint64_t{1}));
        doc.set("bench", JsonValue::string("sim_core"));
        doc.set("entries", JsonValue::array());
    }
    JsonValue entries = doc.get("entries");
    entries.push(entry);
    doc.set("entries", entries);
    std::ofstream out(path, std::ios::trunc);
    out << doc.dump() << "\n";
    if (!out)
        fatal("sim_core: cannot write ", path);
}

/** The baseline instr/s: the LAST trajectory entry with our label. */
bool
baselineInstrPerSec(const std::string &path, const std::string &label,
                    double &out)
{
    JsonValue doc;
    std::string err;
    if (!JsonValue::parse(readFile(path), doc, err))
        fatal("sim_core: cannot parse baseline ", path, ": ", err);
    bool found = false;
    for (const JsonValue &e : doc.get("entries").items()) {
        if (e.get("label").asString() != label)
            continue;
        out = e.get("instr_per_sec").asNumber(0.0);
        found = true;
    }
    return found;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts(argc, argv,
                       {"insts", "warmup", "reps", "json", "baseline",
                        "max-regression", "label"});
    // Long enough that per-run fixed costs (construction, cache and
    // predictor warm-up) stop moving the figure: at 150k insts the
    // measurement is dominated by them; by 600k it is stable.
    const std::uint64_t insts =
        static_cast<std::uint64_t>(opts.getInt("insts", 600'000));
    const std::uint64_t warmup =
        static_cast<std::uint64_t>(opts.getInt("warmup", 60'000));
    const unsigned reps =
        static_cast<unsigned>(opts.getInt("reps", 5));
    const std::string jsonPath = opts.getString("json", "");
    const std::string baseline = opts.getString("baseline", "");
    const double maxRegression = opts.getDouble("max-regression", 0.2);
    const std::string label = opts.getString("label", "local");
    if (insts == 0 || reps == 0)
        fatal("sim_core: insts/reps must be positive");

    std::vector<double> bare, full;
    for (unsigned r = 0; r < reps; ++r) {
        // A fresh seed per rep keeps any one trace's quirks from
        // defining the figure; the median absorbs scheduler noise.
        bare.push_back(bareTicksPerSec(insts, 1 + r));
        full.push_back(fullInstrPerSec(insts, warmup, 1 + r));
    }
    const double ticksPerSec = percentile(bare, 0.50);
    const double instrPerSec = percentile(full, 0.50);

    std::cout << "sim_core: insts=" << insts << " warmup=" << warmup
              << " reps=" << reps << "\n"
              << "sim_core: bare core " << ticksPerSec
              << " ticks/s (p50)\n"
              << "sim_core: full DCG+power stack " << instrPerSec
              << " committed-instr/s (p50)\n";

    if (!baseline.empty()) {
        double base = 0.0;
        if (!baselineInstrPerSec(baseline, label, base)) {
            warn("sim_core: no baseline entry labelled '", label,
                 "' in ", baseline, "; skipping the gate");
        } else {
            const double gate = base * (1.0 - maxRegression);
            std::cout << "sim_core: baseline=" << base
                      << " instr/s gate=" << gate << " instr/s\n";
            if (instrPerSec < gate)
                fatal("sim_core: ", std::to_string(instrPerSec),
                      " instr/s regressed more than ",
                      std::to_string(maxRegression * 100),
                      "% below baseline ", std::to_string(base));
        }
    }

    if (!jsonPath.empty()) {
        JsonValue entry = JsonValue::object();
        entry.set("label", JsonValue::string(label));
        entry.set("insts", JsonValue::integer(insts));
        entry.set("warmup", JsonValue::integer(warmup));
        entry.set("reps", JsonValue::integer(std::uint64_t{reps}));
        entry.set("ticks_per_sec", JsonValue::number(ticksPerSec));
        entry.set("instr_per_sec", JsonValue::number(instrPerSec));
        persistEntry(jsonPath, entry);
        std::cout << "sim_core: appended '" << label << "' to "
                  << jsonPath << "\n";
    }
    return 0;
}
