/**
 * @file
 * Regenerates the evaluation grids behind Figures 10-17 in a single
 * process. Every figure used to be a standalone binary that re-simulated
 * its own copy of the shared baseline; routed through the session engine
 * the baseline (and every other repeated (benchmark, config) pair) is
 * simulated exactly once, so this driver doubles as a measurement of how
 * much work the result cache removes when producing the full figure set.
 */

#include <chrono>
#include <cstdio>

#include "bench/harness.hh"

using namespace dcg;
using namespace dcg::bench;

int
main()
{
    printHeader("Figures 10-17 (combined)",
                "one engine session shares baseline runs across figures");

    struct FigureGrid {
        const char *name;
        GridRequest req;
    };

    // The same declarative grids the standalone figure binaries request.
    GridRequest all_schemes;
    all_schemes.schemes = {"dcg", "plb-orig", "plb-ext"};

    GridRequest dcg_vs_ext;
    dcg_vs_ext.schemes = {"dcg", "plb-ext"};

    GridRequest deep;
    deep.deepPipeline = true;

    const FigureGrid figures[] = {
        {"fig10 total power", all_schemes},
        {"fig11 power-delay", all_schemes},
        {"fig12 int units", dcg_vs_ext},
        {"fig13 fp units", dcg_vs_ext},
        {"fig14 latches", dcg_vs_ext},
        {"fig15 dcache", dcg_vs_ext},
        {"fig16 result bus", dcg_vs_ext},
        {"fig17 deep pipeline", deep},
    };

    auto &engine = exp::sessionEngine();
    std::uint64_t jobs_total = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const FigureGrid &fig : figures) {
        const auto before = engine.simulations();
        const auto results = runGrid(fig.req);
        jobs_total += exp::gridJobs(fig.req).size();
        const auto simulated = engine.simulations() - before;
        std::printf("%-22s %2zu benchmarks, %3zu jobs, %3llu simulated\n",
                    fig.name, results.size(),
                    exp::gridJobs(fig.req).size(),
                    static_cast<unsigned long long>(simulated));
    }
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0);

    std::printf("\ntotal: %llu jobs requested, %llu simulated in %llu "
                "timing runs (%llu served from cache) in %.1f s\n",
                static_cast<unsigned long long>(jobs_total),
                static_cast<unsigned long long>(engine.simulations()),
                static_cast<unsigned long long>(engine.timingRuns()),
                static_cast<unsigned long long>(engine.cacheHits()),
                elapsed.count());
    printEngineSummary();
    return 0;
}
