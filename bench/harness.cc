#include "bench/harness.hh"

#include <iostream>

#include "common/table.hh"

namespace dcg::bench {

std::vector<SchemeResults>
runGrid(const GridRequest &req)
{
    return exp::runGrid(exp::sessionEngine(), req);
}

std::vector<RunResult>
runJobs(const std::vector<exp::Job> &jobs)
{
    return exp::sessionEngine().run(jobs);
}

void
printHeader(const std::string &figure, const std::string &claim)
{
    std::cout << "==================================================\n"
              << figure << "\n" << claim << "\n"
              << "(runs: " << defaultBenchInstructions()
              << " instructions after " << defaultBenchWarmup()
              << " warm-up; override with DCG_BENCH_INSTS /"
              << " DCG_BENCH_WARMUP; workers: "
              << exp::sessionEngine().workers()
              << ", override with DCG_JOBS)\n"
              << "==================================================\n";
}

void
printEngineSummary()
{
    const exp::Engine &e = exp::sessionEngine();
    std::cout << "\n[engine] " << e.workers() << " worker(s), "
              << e.simulations() << " simulation(s) in "
              << e.timingRuns() << " timing run(s), "
              << e.cacheHits() << " cache hit(s)\n";
}

void
runComponentFigure(const std::string &figure, const std::string &claim,
                   const std::function<double(const RunResult &)> &pick,
                   const std::string &paper_dcg,
                   const std::string &paper_ext)
{
    printHeader(figure, claim);

    GridRequest req;
    req.schemes = {"dcg", "plb-ext"};
    const auto grid = runGrid(req);

    TextTable t({"bench", "suite", "DCG", "PLB-ext"});
    for (const auto &r : grid) {
        t.addRow({r.profile.name, r.profile.isFp ? "fp" : "int",
                  TextTable::pct(componentSaving(r.base(), r.dcg(), pick)),
                  TextTable::pct(componentSaving(r.base(), r.plbExt(),
                                                 pick))});
    }
    t.print(std::cout);

    const auto dcg_m = meansBySuite(grid, [&](const SchemeResults &r) {
        return componentSaving(r.base(), r.dcg(), pick);
    });
    const auto ext_m = meansBySuite(grid, [&](const SchemeResults &r) {
        return componentSaving(r.base(), r.plbExt(), pick);
    });
    std::cout << "\nAverages:\n"
              << "  DCG     int " << TextTable::pct(dcg_m.intMean)
              << "%  fp " << TextTable::pct(dcg_m.fpMean) << "%   "
              << paper_dcg << "\n"
              << "  PLB-ext int " << TextTable::pct(ext_m.intMean)
              << "%  fp " << TextTable::pct(ext_m.fpMean) << "%   "
              << paper_ext << "\n";
    printEngineSummary();
}

} // namespace dcg::bench
