#include "gating/plb.hh"

#include <algorithm>

#include "common/log.hh"
#include "gating/registry.hh"
#include "sim/simulator.hh"

namespace dcg {

namespace {

// Trigger calibration (see plb.hh).
/** Window issue-IPC below this requests 4-wide mode. */
constexpr double kIpcThresholdLow = 1.5;
/** Window issue-IPC below this requests 6-wide mode. */
constexpr double kIpcThresholdMid = 2.8;
/** FP issue-IPC above this keeps the machine at >= 6-wide. */
constexpr double kFpIpcGuard = 0.8;
/** Mode history: windows that must agree before switching *down*
 *  (switching up is immediate, as in [1]). */
constexpr unsigned kDownConfirmWindows = 2;

} // namespace

namespace gating {
namespace {

const bool registeredOrig = schemes().add(
    {"plb-orig",
     "pipeline balancing (Bahar & Manne [1]): low-power issue modes"
     " gating disabled FUs and an issue-queue slice",
     {}},
    [](const SimConfig &cfg, StatRegistry &stats) {
        return std::make_unique<PlbController>(cfg.core, cfg.plb, false,
                                               stats);
    });

const bool registeredExt = schemes().add(
    {"plb-ext",
     "extended pipeline balancing (paper Sec 4.3): plb-orig plus"
     " latch, D-cache port and result-bus gating",
     {}},
    [](const SimConfig &cfg, StatRegistry &stats) {
        return std::make_unique<PlbController>(cfg.core, cfg.plb, true,
                                               stats);
    });

} // namespace

void
anchorPlbSchemeRegistration()
{
    (void)registeredOrig;
    (void)registeredExt;
}

} // namespace gating

PlbController::PlbController(const CoreConfig &core_cfg,
                             const PlbConfig &cfg_, bool extended_,
                             StatRegistry &stats)
    : coreCfg(core_cfg),
      cfg(cfg_),
      extended(extended_),
      windows8(stats.counter("plb.windows_8wide",
                             "windows spent in 8-wide mode")),
      windows6(stats.counter("plb.windows_6wide",
                             "windows spent in 6-wide mode")),
      windows4(stats.counter("plb.windows_4wide",
                             "windows spent in 4-wide mode")),
      transitions(stats.counter("plb.mode_transitions",
                                "issue-mode changes"))
{
    DCG_ASSERT(cfg.windowCycles >= 16, "PLB window too short");
}

unsigned
PlbController::desiredMode(double ipc, double fp_ipc) const
{
    unsigned want = 8;
    if (ipc < kIpcThresholdMid)
        want = 6;
    if (ipc < kIpcThresholdLow)
        want = 4;
    // Secondary trigger: heavy FP traffic needs the wide FP cluster
    // slice, so never drop to 4-wide under it.
    if (want == 4 && fp_ipc > kFpIpcGuard)
        want = 6;
    return want;
}

void
PlbController::beginCycle(Core &core)
{
    if (windowCycles < cfg.windowCycles)
        return;

    // Window boundary: predict the next window's ILP from this one.
    const double ipc = static_cast<double>(windowIssued) /
                       static_cast<double>(windowCycles);
    const double fp_ipc = static_cast<double>(windowFpIssued) /
                          static_cast<double>(windowCycles);
    windowIssued = 0;
    windowFpIssued = 0;
    windowCycles = 0;

    const unsigned want = desiredMode(ipc, fp_ipc);

    unsigned next = curMode;
    if (want >= curMode) {
        // Performance first: widen immediately.
        next = want;
        pendingDownCount = 0;
    } else {
        // Mode history damping: confirm before narrowing.
        if (want == pendingDownMode) {
            ++pendingDownCount;
        } else {
            pendingDownMode = want;
            pendingDownCount = 1;
        }
        if (pendingDownCount >= kDownConfirmWindows) {
            next = want;
            pendingDownCount = 0;
        }
    }

    if (next != curMode) {
        ++transitions;
        curMode = next;
        applyMode(core, next);
    }
}

void
PlbController::applyMode(Core &core, unsigned mode)
{
    DCG_ASSERT(mode == 8 || mode == 6 || mode == 4, "bad PLB mode");
    core.setIssueWidthLimit(mode);
    switch (mode) {
      case 8:
        core.setFuEnabledCount(FuType::IntAluUnit, 6);
        core.setFuEnabledCount(FuType::IntMulDivUnit, 2);
        core.setFuEnabledCount(FuType::FpAluUnit, 4);
        core.setFuEnabledCount(FuType::FpMulDivUnit, 4);
        core.setDcachePortLimit(coreCfg.dcachePorts);
        core.setResultBusLimit(coreCfg.numResultBuses);
        break;
      case 6:
        // Sec 4.3: disable 1 intALU, 1 FPU, 1 FP mul/div; cache ports
        // stay intact.
        core.setFuEnabledCount(FuType::IntAluUnit, 5);
        core.setFuEnabledCount(FuType::IntMulDivUnit, 2);
        core.setFuEnabledCount(FuType::FpAluUnit, 3);
        core.setFuEnabledCount(FuType::FpMulDivUnit, 3);
        core.setDcachePortLimit(coreCfg.dcachePorts);
        core.setResultBusLimit(extended ? 6 : coreCfg.numResultBuses);
        break;
      case 4:
        // Sec 4.3: disable 3 intALU, 1 int mul/div, 2 FPUs, 2 FP
        // mul/div; PLB-ext also drops one memory port.
        core.setFuEnabledCount(FuType::IntAluUnit, 3);
        core.setFuEnabledCount(FuType::IntMulDivUnit, 1);
        core.setFuEnabledCount(FuType::FpAluUnit, 2);
        core.setFuEnabledCount(FuType::FpMulDivUnit, 2);
        core.setDcachePortLimit(extended ? 1 : coreCfg.dcachePorts);
        core.setResultBusLimit(extended ? 4 : coreCfg.numResultBuses);
        break;
      default:
        break;
    }
}

GateState
PlbController::gates(const CycleActivity &act)
{
    ++windowCycles;
    windowIssued += act.issued;
    windowFpIssued += act.fpIssued;

    switch (curMode) {
      case 8: ++windows8; break;
      case 6: ++windows6; break;
      case 4: ++windows4; break;
      default: break;
    }

    GateState g;
    if (curMode == 8)
        return g;

    const unsigned disabled_slots = coreCfg.issueWidth - curMode;

    // Disabled execution-unit instances are the high-indexed suffix of
    // each pool; they may still be draining pre-switch operations, in
    // which case they cannot be gated yet.
    const unsigned int_alu_on = curMode == 6 ? 5 : 3;
    const unsigned int_md_on = curMode == 6 ? 2 : 1;
    const unsigned fp_alu_on = curMode == 6 ? 3 : 2;
    const unsigned fp_md_on = curMode == 6 ? 3 : 2;
    const unsigned enabled_counts[kNumFuTypes] = {
        int_alu_on, int_md_on, fp_alu_on, fp_md_on};
    for (unsigned t = 0; t < kNumFuTypes; ++t) {
        const std::uint16_t all = static_cast<std::uint16_t>(
            (1u << coreCfg.fuCount[t]) - 1);
        const std::uint16_t enabled_mask = static_cast<std::uint16_t>(
            (1u << enabled_counts[t]) - 1);
        g.fuGateMask[t] = static_cast<std::uint16_t>(
            all & ~enabled_mask & ~act.fuBusyMask[t]);
    }

    // Both PLB variants clock-gate a proportional slice of the issue
    // queue (the paper notes DCG does *not* gate the issue queue).
    g.iqGatedFraction = static_cast<double>(disabled_slots) /
                        static_cast<double>(coreCfg.issueWidth);

    if (extended) {
        for (unsigned p = 0; p < kNumLatchPhases; ++p) {
            const std::uint8_t free_slots = static_cast<std::uint8_t>(
                coreCfg.issueWidth - act.latchFlux[p]);
            g.latchSlotsGated[p] = static_cast<std::uint8_t>(
                std::min<unsigned>(disabled_slots, free_slots));
        }
        if (curMode == 4) {
            const unsigned free_ports =
                coreCfg.dcachePorts - act.dcachePortsUsed;
            g.dcachePortsGated = static_cast<std::uint8_t>(
                std::min<unsigned>(1, free_ports));
        }
        const unsigned free_buses =
            coreCfg.numResultBuses - act.resultBusUsed;
        g.resultBusesGated = static_cast<std::uint8_t>(
            std::min<unsigned>(disabled_slots, free_buses));
    }

    return g;
}

} // namespace dcg
