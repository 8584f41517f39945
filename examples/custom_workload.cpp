/**
 * @file
 * Building a custom workload model with the public API: a synthetic
 * "in-memory database" that alternates between a scan phase (high ILP,
 * streaming) and a probe phase (pointer chasing), then exploring how
 * each gating scheme responds.
 *
 * This is the template for adding your own workloads: fill a Profile,
 * wrap it in exp::Jobs (one per gating scheme), hand the batch to the
 * experiment engine, read the RunResults.
 *
 * Usage:
 *   custom_workload [--insts=150000] [--warmup=60000] [--pointer_mb=32]
 */

#include <iostream>
#include <vector>

#include "common/options.hh"
#include "common/table.hh"
#include "exp/engine.hh"
#include "gating/registry.hh"
#include "sim/presets.hh"

using namespace dcg;

int
main(int argc, char **argv)
{
    Options opts(argc, argv, {"insts", "warmup", "pointer_mb"});
    const auto insts = static_cast<std::uint64_t>(
        opts.getInt("insts", 150'000));
    const auto warmup = static_cast<std::uint64_t>(
        opts.getInt("warmup", 60'000));
    const auto pointer_mb = static_cast<Addr>(
        opts.getInt("pointer_mb", 32));

    // --- 1. Describe the workload.
    Profile db;
    db.name = "memdb";
    db.isFp = false;
    //        IAlu  IMul IDiv FAlu FMul FDiv  Ld    St    Br
    db.mix = {0.42, 0.01, 0.0, 0.0, 0.0, 0.0, 0.30, 0.09, 0.18};

    // Scan phase: ready operands, long dependence distances.
    db.deps = {0.52, 0.55, 0.10, 48};

    // Probe phase (the generator's low-ILP phase): chains of dependent
    // loads into a pointer region sized from the command line.
    db.phases.lowIlpFraction = 0.45;
    db.phases.meanPhaseLen = 5000;
    db.phases.lowReadyScale = 0.25;
    db.phases.lowGeoScale = 3.0;
    db.phases.lowMissScale = 4.0;

    db.branches = {0.40, 0.30, 0.18, 0.12};
    db.memory.fracStack = 0.45;
    db.memory.fracStride = 0.48;
    db.memory.fracRandom = 0.07;
    db.memory.randomRegionBytes = pointer_mb * 1024 * 1024;
    db.codeFootprintBytes = 48 * 1024;

    std::cout << "== custom workload 'memdb' (pointer region "
              << pointer_mb << " MB) ==\n\n";

    // --- 2. Declare one job per registered gating scheme and run the
    //        batch on the engine (parallel when DCG_JOBS > 1). The
    //        registry catalog means a newly-added scheme shows up here
    //        with no code change ("base" sorts first, so results[0]
    //        stays the denominator).
    std::vector<exp::Job> jobs;
    for (const std::string &s : gating::schemes().names())
        jobs.push_back(exp::makeJob(db, table1Config(s), insts, warmup));

    exp::Engine engine;
    const auto results = engine.run(jobs);
    const RunResult &base = results[0];

    TextTable t({"scheme", "IPC", "power (W)", "saving (%)",
                 "E/inst (pJ)"});
    for (const RunResult &r : results) {
        t.addRow({r.scheme, TextTable::num(r.ipc, 2),
                  TextTable::num(r.avgPowerW, 1),
                  TextTable::pct(1.0 - r.avgPowerW / base.avgPowerW),
                  TextTable::num(r.energyPerInstPJ(), 0)});
    }
    t.print(std::cout);

    std::cout << "\nDCG keeps the scan phase's IPC untouched while "
                 "gating through the\nprobe phase's stalls; PLB has to "
                 "predict the phase switches and pays\nfor every "
                 "misprediction twice (lost power or lost time).\n";
    return 0;
}
