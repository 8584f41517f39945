/**
 * @file
 * Top-level simulator: one timing stack feeding one or more scheme
 * lanes; runs warm-up + measurement and produces a RunResult per lane.
 *
 * The timing stack is the synthetic workload, the memory hierarchy,
 * the branch predictor, the Table-1 core and the utilisation sums. A
 * scheme lane is a gating policy, a power model and the lane's own
 * statistics registry. Each cycle the core runs once and every lane
 * calls beginCycle, gates and tick (or skipIdle over an idle window)
 * on the one activity record it produced.
 *
 * Several lanes may share one timing stack only when sharing cannot
 * change what any of them sees: every lane's config matches the others
 * in each timing field (core, branch predictor, memory hierarchy, seed,
 * skip-ahead), and every lane's scheme is declared
 * SchemeInfo::timingNeutral, i.e. never touches the core. Each lane's
 * result, statistics dump and stat() values are then byte-identical to
 * a solo Simulator of its config (tests/sim/scheme_sweep_test.cc). A
 * scheme that steers the core (PLB's issue modes) runs alone;
 * Simulator(profile, config) is the one-lane case of the same loop.
 *
 * Statistics: the timing stack registers into one registry and each
 * lane into its own. stat(name, lane) and dumpStats(os, lane) read the
 * timing registry merged with the lane's, in name order, so a one-lane
 * dump is the same report a single registry gave.
 */

#ifndef DCG_SIM_SIMULATOR_HH
#define DCG_SIM_SIMULATOR_HH

#include <array>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "gating/dcg.hh"
#include "gating/plb.hh"
#include "gating/policy.hh"
#include "pipeline/core.hh"
#include "power/model.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"

namespace dcg {

struct SimConfig
{
    CoreConfig core;
    BranchPredictorConfig bpred;
    HierarchyConfig mem;
    Technology tech;

    /**
     * Registered gating-scheme name (see gating/registry.hh); the
     * Simulator constructor resolves it through gating::makePolicy.
     */
    std::string scheme = "base";

    /// @name Per-scheme configuration, keyed by the scheme string
    /// @{
    DcgConfig dcg;
    PlbConfig plb;
    /// @}

    std::uint64_t seed = 1;

    /**
     * Skip provably idle windows in O(1) instead of ticking through
     * them (Core::idleSkipAvailable). Results are identical by
     * construction — tests/sim/skipahead_test.cc checks byte-identity
     * of the full report with the knob off vs on — so this stays on
     * except when that equivalence itself is under test.
     */
    bool skipAhead = true;
};

/** Everything the benchmark harness needs from one run. */
struct RunResult
{
    std::string benchmark;
    std::string scheme;

    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double ipc = 0.0;

    double totalEnergyPJ = 0.0;
    double avgPowerW = 0.0;

    /** Per-component energies (pJ), indexed by PowerComponent. */
    std::array<double, kNumPowerComponents> componentPJ{};

    /// @name Grouped energies used by the paper's figures
    /// @{
    double intUnitsPJ = 0.0;
    double fpUnitsPJ = 0.0;
    double latchPJ = 0.0;   ///< includes DCG control overhead
    double dcachePJ = 0.0;
    double resultBusPJ = 0.0;
    /// @}

    /// @name Measured utilisations (fraction of capacity per cycle)
    /// @{
    double intUnitUtil = 0.0;
    double fpUnitUtil = 0.0;
    double latchUtil = 0.0;       ///< gateable phases only
    double dcachePortUtil = 0.0;
    double resultBusUtil = 0.0;
    /// @}

    double branchAccuracy = 0.0;
    double l1dMissRate = 0.0;

    /**
     * Named registry statistics captured on request (see
     * exp::Job::captureStats); empty for plain Simulator runs.
     */
    std::map<std::string, double> extraStats;

    /** Power x delay, normalised per instruction (pJ/inst). */
    double energyPerInstPJ() const
    {
        return instructions ? totalEnergyPJ /
               static_cast<double>(instructions) : 0.0;
    }
};

/**
 * True when @p a and @p b agree in every timing field (core, branch
 * predictor, memory hierarchy, seed, skip-ahead), so they may share
 * one Simulator timing stack.
 */
bool sameTiming(const SimConfig &a, const SimConfig &b);

class Simulator
{
  public:
    /** One lane: a solo run of @p config. */
    Simulator(const Profile &profile, const SimConfig &config);

    /**
     * One lane per entry of @p lanes, sharing one timing stack. With
     * more than one lane, fatal() unless every lane's scheme is
     * timing-neutral and all lanes agree in every timing field.
     */
    Simulator(const Profile &profile, const std::vector<SimConfig> &lanes);
    ~Simulator();

    /**
     * Simulate @p warmup instructions (stats then reset), then
     * @p instructions measured instructions. fatal() as a deadlock
     * once the core passes cycleCap(instructions, warmup).
     */
    void run(std::uint64_t instructions, std::uint64_t warmup);

    /**
     * run()'s cycle budget: 100 cycles per instruction plus 1M,
     * saturating at UINT64_MAX rather than wrapping to a small budget.
     */
    static std::uint64_t cycleCap(std::uint64_t instructions,
                                  std::uint64_t warmup);

    std::size_t lanes() const { return laneV.size(); }

    RunResult result(std::size_t lane = 0) const;

    /**
     * A statistic's printable value, looked up in the timing registry
     * merged with @p lane's; 0 if absent (as StatRegistry::lookup).
     */
    double stat(const std::string &name, std::size_t lane = 0) const;

    /** Dump the timing registry merged with @p lane's, by name. */
    void dumpStats(std::ostream &os, std::size_t lane = 0) const;

    Core &core() { return *coreP; }
    MemoryHierarchy &memory() { return *memP; }
    /** The timing stack's registry (core, caches, predictor). */
    StatRegistry &timingStats() { return statsP; }
    PowerModel &power(std::size_t lane = 0) { return *laneV.at(lane).power; }
    GatingPolicy &policy(std::size_t lane = 0)
    {
        return *laneV.at(lane).policy;
    }

  private:
    /** One scheme fed by the shared timing stack. */
    struct Lane
    {
        StatRegistry stats;
        std::unique_ptr<PowerModel> power;
        std::unique_ptr<GatingPolicy> policy;
    };

    void step();
    void resetMeasurement();
    void prewarmCaches();
    void foldStats(const Lane &lane) const;

    SimConfig cfg;  ///< the timing fields every lane shares
    Profile prof;

    StatRegistry statsP;
    std::unique_ptr<TraceGenerator> genP;
    std::unique_ptr<MemoryHierarchy> memP;
    std::unique_ptr<BranchPredictor> bpredP;
    std::unique_ptr<Core> coreP;
    std::vector<Lane> laneV;

    /**
     * Utilisation accumulators over measured cycles. Integer: the
     * per-cycle contributions are small counts, and integer sums keep
     * the utilisation figures independent of accumulation order
     * (skipped idle windows contribute zero).
     */
    std::uint64_t intUnitBusySum = 0;
    std::uint64_t fpUnitBusySum = 0;
    std::uint64_t latchFluxSum = 0;
    std::uint64_t portUseSum = 0;
    std::uint64_t busUseSum = 0;
    std::uint64_t measuredCycles = 0;
};

/**
 * Convenience harness: build, run and collect the result in one call.
 * Instruction counts default to the benchmark-suite settings and may
 * be overridden by the DCG_BENCH_INSTS / DCG_BENCH_WARMUP environment
 * variables.
 */
RunResult runBenchmark(const Profile &profile, const SimConfig &config,
                       std::uint64_t instructions = 0,
                       std::uint64_t warmup = 0);

/** Default measured instructions (honours DCG_BENCH_INSTS). */
std::uint64_t defaultBenchInstructions();
/** Default warm-up instructions (honours DCG_BENCH_WARMUP). */
std::uint64_t defaultBenchWarmup();

} // namespace dcg

#endif // DCG_SIM_SIMULATOR_HH
