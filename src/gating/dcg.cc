#include "gating/dcg.hh"

#include <algorithm>

#include <string>

#include "common/log.hh"
#include "gating/registry.hh"
#include "sim/simulator.hh"

namespace dcg {

namespace gating {
namespace {

const bool registered = schemes().add(
    {"dcg",
     "deterministic clock gating (this paper, HPCA 2003): FU, latch,"
     " D-cache decoder and result-bus gating from piped GRANT signals",
     {{"gate-iq",
       "also gate empty issue-queue entries after [6] (dcgsim"
       " --gate-iq)", "off"}},
     true},
    [](const SimConfig &cfg, StatRegistry &stats) {
        return std::make_unique<DcgController>(cfg.core, cfg.dcg,
                                               stats);
    });

} // namespace

void anchorDcgSchemeRegistration() { (void)registered; }

} // namespace gating

DcgController::DcgController(const CoreConfig &core_cfg,
                             const DcgConfig &cfg_, StatRegistry &stats)
    : coreCfg(core_cfg),
      cfg(cfg_),
      gatedFuCycles(stats.counter("dcg.gated_fu_cycles",
                                  "execution-unit-cycles clock-gated")),
      gatedLatchSlots(stats.counter("dcg.gated_latch_slots",
                                    "latch slot-cycles clock-gated")),
      gatedPorts(stats.counter("dcg.gated_dcache_ports",
                               "D-cache port-cycles clock-gated")),
      gatedBuses(stats.counter("dcg.gated_result_buses",
                               "result-bus-cycles clock-gated"))
{
    for (unsigned t = 0; t < kNumFuTypes; ++t) {
        toggles[t] = &stats.counter(
            std::string("dcg.toggles.") +
            fuTypeName(static_cast<FuType>(t)),
            "gate-control transitions for this FU type");
        // Everything starts gated: an idle machine draws minimal power.
        prevMask[t] = static_cast<std::uint16_t>(
            (1u << coreCfg.fuCount[t]) - 1);
    }
}

GateState
DcgController::gates(const CycleActivity &act)
{
    GateState g;
    g.dcgControlActive = true;

    if (cfg.gateExecUnits) {
        for (unsigned t = 0; t < kNumFuTypes; ++t) {
            const std::uint16_t all = static_cast<std::uint16_t>(
                (1u << coreCfg.fuCount[t]) - 1);
            // The GRANT signals piped from the issue stage identify the
            // busy instances for this cycle; everything else is gated.
            const std::uint16_t mask =
                static_cast<std::uint16_t>(all & ~act.fuBusyMask[t]);
            g.fuGateMask[t] = mask;
            gatedFuCycles += __builtin_popcount(mask);
            *toggles[t] += __builtin_popcount(
                static_cast<std::uint16_t>(mask ^ prevMask[t]));
            prevMask[t] = mask;
        }
    }

    if (cfg.gateLatches) {
        for (unsigned p = 0; p < kNumLatchPhases; ++p) {
            const auto phase = static_cast<LatchPhase>(p);
            if (!latchPhaseGateable(phase))
                continue;
            DCG_ASSERT(act.latchFlux[p] <= coreCfg.issueWidth,
                       "latch flux exceeds machine width");
            const std::uint8_t gated = static_cast<std::uint8_t>(
                coreCfg.issueWidth - act.latchFlux[p]);
            g.latchSlotsGated[p] = gated;
            gatedLatchSlots += gated;
        }
    }

    if (cfg.gateDcacheDecoders) {
        DCG_ASSERT(act.dcachePortsUsed <= coreCfg.dcachePorts,
                   "port use exceeds port count");
        g.dcachePortsGated = static_cast<std::uint8_t>(
            coreCfg.dcachePorts - act.dcachePortsUsed);
        gatedPorts += g.dcachePortsGated;
    }

    if (cfg.gateIssueQueue) {
        // [6]: entries beyond the allocated window region are known
        // empty and their CAM/wakeup slices can be clock-gated. The
        // rename width is reserved since this cycle's dispatches were
        // not known when the gate control was set up.
        const unsigned size = coreCfg.windowSize;
        const unsigned occupied = std::min<unsigned>(
            act.iqOccupied + coreCfg.renameWidth, size);
        g.iqGatedFraction =
            static_cast<double>(size - occupied) / size;
    }

    if (cfg.gateResultBus) {
        DCG_ASSERT(act.resultBusUsed <= coreCfg.numResultBuses,
                   "bus use exceeds bus count");
        g.resultBusesGated = static_cast<std::uint8_t>(
            coreCfg.numResultBuses - act.resultBusUsed);
        gatedBuses += g.resultBusesGated;
    }

    return g;
}

void
DcgController::skipIdle(Core &core, std::uint64_t cycles, IdleSink &sink)
{
    (void)core;
    // One real gates() call settles the toggle accounting (the mask
    // may transition into all-gated) and charges the first cycle's
    // counters; the remaining cycles repeat the identical all-idle
    // decision with zero toggles, so their counters are a multiply.
    const CycleActivity idle{};
    const GateState g = gates(idle);
    if (cycles > 1) {
        const std::uint64_t rest = cycles - 1;
        if (cfg.gateExecUnits) {
            std::uint64_t per = 0;
            for (unsigned t = 0; t < kNumFuTypes; ++t)
                per += static_cast<unsigned>(
                    __builtin_popcount(g.fuGateMask[t]));
            gatedFuCycles += per * rest;
        }
        if (cfg.gateLatches) {
            std::uint64_t per = 0;
            for (unsigned p = 0; p < kNumLatchPhases; ++p)
                per += g.latchSlotsGated[p];
            gatedLatchSlots += per * rest;
        }
        if (cfg.gateDcacheDecoders)
            gatedPorts += std::uint64_t{g.dcachePortsGated} * rest;
        if (cfg.gateResultBus)
            gatedBuses += std::uint64_t{g.resultBusesGated} * rest;
    }
    sink.chargeIdle(g, cycles);
}

} // namespace dcg
