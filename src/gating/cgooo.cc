#include "gating/cgooo.hh"

#include <algorithm>

#include "common/log.hh"
#include "gating/registry.hh"
#include "sim/simulator.hh"

namespace dcg {

namespace {

/** Issue-queue entries per block (must divide the window size). */
constexpr unsigned kBlockSize = 16;
/** Per-block scheduler energy per cycle, x iqClockCap (cgooo.hh). */
constexpr double kSchedOverhead = 0.04;

} // namespace

CgoooController::CgoooController(const CoreConfig &core_cfg,
                                 StatRegistry &stats)
    : coreCfg(core_cfg),
      activeBlocks(stats.counter("cgooo.active_blocks",
                                 "issue-queue block-cycles clocked")),
      gatedBlocks(stats.counter("cgooo.gated_blocks",
                                "issue-queue block-cycles clock-gated"))
{
    DCG_ASSERT(coreCfg.windowSize % kBlockSize == 0,
               "CG-OoO block size must divide the window size");
    numBlocks = coreCfg.windowSize / kBlockSize;
}

GateState
CgoooController::gates(const CycleActivity &act)
{
    GateState g;

    // Compacted-allocation model: residents fill the lowest blocks;
    // a rename group's worth of entries stays enabled for this
    // cycle's unannounced arrivals (same reserve as DCG's IQ
    // extension after [6]).
    DCG_ASSERT(act.iqOccupied <= coreCfg.windowSize,
               "IQ occupancy exceeds window size");
    const unsigned reserved = std::min<unsigned>(
        act.iqOccupied + coreCfg.renameWidth, coreCfg.windowSize);
    const unsigned active =
        (reserved + kBlockSize - 1) / kBlockSize;
    const unsigned gated = numBlocks - active;
    activeBlocks += active;
    gatedBlocks += gated;

    const double active_frac = static_cast<double>(active) /
                               static_cast<double>(numBlocks);
    g.iqGatedFraction = 1.0 - active_frac;
    // Wakeup broadcast is driven only into active blocks.
    g.iqWakeupScale = active_frac;
    // The per-block schedulers of the active blocks are clocked.
    g.iqSchedOverhead = kSchedOverhead * active_frac;
    return g;
}

void
CgoooController::skipIdle(Core &core, std::uint64_t cycles,
                          IdleSink &sink)
{
    (void)core;
    // Idle occupancy is zero, so the same rename-width reserve of
    // blocks stays clocked every skipped cycle; multiply the per-cycle
    // block counters instead of looping.
    const CycleActivity idle{};
    const GateState g = gates(idle);
    if (cycles > 1) {
        const unsigned reserved = std::min<unsigned>(
            coreCfg.renameWidth, coreCfg.windowSize);
        const unsigned active =
            (reserved + kBlockSize - 1) / kBlockSize;
        activeBlocks += std::uint64_t{active} * (cycles - 1);
        gatedBlocks += std::uint64_t{numBlocks - active} * (cycles - 1);
    }
    sink.chargeIdle(g, cycles);
}

namespace gating {
namespace {

const bool registered = schemes().add(
    {"cgooo",
     "coarse-grain OoO gating (Mohammadi et al., arXiv 1606.01607):"
     " block-granular issue-queue clock and wakeup-broadcast gating",
     {},
     true},
    [](const SimConfig &cfg, StatRegistry &stats) {
        return std::make_unique<CgoooController>(cfg.core, stats);
    });

} // namespace

void anchorCgoooSchemeRegistration() { (void)registered; }

} // namespace gating

} // namespace dcg
