/**
 * @file
 * Sweep every modelled SPEC2000 benchmark across the gating schemes and
 * print per-benchmark microarchitectural characteristics, the baseline
 * power breakdown and the savings of each scheme — the bird's-eye view
 * of everything the paper's evaluation section measures.
 *
 * The whole (benchmark x scheme) grid is one declarative request to
 * the experiment engine, which fans the 64 simulations out across
 * --jobs workers; results are optionally exported as JSON/CSV.
 *
 * Usage:
 *   benchmark_sweep [--insts=N] [--warmup=N] [--breakdown] [--jobs=N]
 *                   [--json=path] [--csv=path]
 */

#include <iostream>

#include "common/options.hh"
#include "common/table.hh"
#include "exp/grid.hh"
#include "exp/metrics.hh"
#include "sim/report.hh"

using namespace dcg;

int
main(int argc, char **argv)
{
    Options opts(argc, argv, {"insts", "warmup", "breakdown", "jobs",
                              "json", "csv"});
    const bool breakdown = opts.getBool("breakdown", false);

    exp::GridRequest req;
    req.schemes = {"dcg", "plb-orig", "plb-ext"};
    req.instructions = static_cast<std::uint64_t>(
        opts.getInt("insts", static_cast<std::int64_t>(
                                 defaultBenchInstructions())));
    req.warmup = static_cast<std::uint64_t>(
        opts.getInt("warmup", static_cast<std::int64_t>(
                                  defaultBenchWarmup())));

    exp::Engine engine(static_cast<unsigned>(opts.getInt("jobs", 0)));
    const auto grid = exp::runGrid(engine, req);

    TextTable chars({"bench", "set", "IPC", "bpred%", "L1D-miss%",
                     "intU%", "fpU%", "latch%", "dport%", "rbus%"});
    TextTable savings({"bench", "baseW", "DCG%", "PLBorig%", "PLBext%",
                       "dIPC-PLB%"});

    std::vector<RunResult> flat;
    for (const exp::SchemeResults &r : grid) {
        const RunResult &base = r.base();
        flat.insert(flat.end(),
                    {r.base(), r.dcg(), r.plbOrig(), r.plbExt()});

        chars.addRow({r.profile.name, r.profile.isFp ? "fp" : "int",
                      TextTable::num(base.ipc, 2),
                      TextTable::pct(base.branchAccuracy),
                      TextTable::pct(base.l1dMissRate),
                      TextTable::pct(base.intUnitUtil),
                      TextTable::pct(base.fpUnitUtil),
                      TextTable::pct(base.latchUtil),
                      TextTable::pct(base.dcachePortUtil),
                      TextTable::pct(base.resultBusUtil)});

        savings.addRow({r.profile.name,
                        TextTable::num(base.avgPowerW, 1),
                        TextTable::pct(exp::powerSaving(base, r.dcg())),
                        TextTable::pct(
                            exp::powerSaving(base, r.plbOrig())),
                        TextTable::pct(
                            exp::powerSaving(base, r.plbExt())),
                        TextTable::pct(1.0 -
                                       r.plbExt().ipc / base.ipc)});

        if (breakdown) {
            std::cout << "-- " << r.profile.name
                      << " baseline component breakdown (%):\n";
            for (unsigned c = 0; c < kNumPowerComponents; ++c) {
                const double frac =
                    base.componentPJ[c] / base.totalEnergyPJ;
                if (frac > 0.001) {
                    std::cout << "   "
                              << powerComponentName(
                                     static_cast<PowerComponent>(c))
                              << ": " << TextTable::pct(frac) << "\n";
                }
            }
        }
    }

    std::cout << "\n== Workload characteristics (baseline machine) ==\n";
    chars.print(std::cout);
    std::cout << "\n== Total power savings vs baseline ==\n";
    savings.print(std::cout);
    std::cout << "\nPaper reference: DCG ~20.9% int / ~18.8% fp;"
              << " PLB-orig ~6.3/4.9; PLB-ext ~11.0/8.7;"
              << " PLB perf loss ~2.9%.\n"
              << "[engine] " << engine.workers() << " worker(s), "
              << engine.simulations() << " simulation(s) in "
              << engine.timingRuns() << " timing run(s)\n";

    if (opts.has("json"))
        writeResultsJsonFile(flat, opts.getString("json", ""));
    if (opts.has("csv"))
        writeResultsCsvFile(flat, opts.getString("csv", ""));
    return 0;
}
