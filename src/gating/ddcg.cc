#include "gating/ddcg.hh"

#include "common/log.hh"
#include "gating/registry.hh"
#include "sim/simulator.hh"

namespace dcg {

namespace {

/** Switching fraction of an active slot's bits; the rest are gated. */
constexpr double kBitActivityFactor = 0.45;
/** Comparator energy per guarded bit per cycle, x latchBitCap. */
constexpr double kCompareOverhead = 0.08;

} // namespace

DdcgController::DdcgController(const CoreConfig &core_cfg,
                               StatRegistry &stats)
    : coreCfg(core_cfg),
      gatedSlots(stats.counter("ddcg.gated_latch_slots",
                               "latch slot-cycles fully clock-gated"
                               " (zero flux)")),
      clockedSlots(stats.counter("ddcg.clocked_latch_slots",
                                 "latch slot-cycles left clocked"
                                 " (bit-level gating applies)"))
{
}

GateState
DdcgController::gates(const CycleActivity &act)
{
    GateState g;

    // Every phase, front end included: the comparator needs no
    // advance notice.
    for (unsigned p = 0; p < kNumLatchPhases; ++p) {
        DCG_ASSERT(act.latchFlux[p] <= coreCfg.issueWidth,
                   "latch flux exceeds machine width");
        // A slot with no in-flight value has D == Q on every bit: the
        // whole slot's comparator output holds its clock low.
        const std::uint8_t gated = static_cast<std::uint8_t>(
            coreCfg.issueWidth - act.latchFlux[p]);
        g.latchSlotsGated[p] = gated;
        gatedSlots += gated;
        clockedSlots += act.latchFlux[p];
    }

    // Within clocked slots, only the switching bits see a clock edge.
    g.latchBitGatedFraction = 1.0 - kBitActivityFactor;
    // Every guarded bit pays its comparator, clocked or not.
    g.latchCompareOverhead = kCompareOverhead;
    return g;
}

void
DdcgController::skipIdle(Core &core, std::uint64_t cycles,
                         IdleSink &sink)
{
    (void)core;
    // The all-idle decision is identical every cycle (zero flux gates
    // every guarded slot); charge the first cycle through gates() and
    // multiply the per-cycle counters for the rest.
    const CycleActivity idle{};
    const GateState g = gates(idle);
    if (cycles > 1) {
        std::uint64_t per = 0;
        for (unsigned p = 0; p < kNumLatchPhases; ++p)
            per += g.latchSlotsGated[p];
        gatedSlots += per * (cycles - 1);
        // clockedSlots gains nothing: idle flux is zero.
    }
    sink.chargeIdle(g, cycles);
}

namespace gating {
namespace {

const bool registered = schemes().add(
    {"ddcg",
     "data-driven clock gating (Sarkar et al., arXiv 1806.02271):"
     " per-latch next-state==state comparators, all pipeline phases",
     {},
     true},
    [](const SimConfig &cfg, StatRegistry &stats) {
        return std::make_unique<DdcgController>(cfg.core, stats);
    });

} // namespace

void anchorDdcgSchemeRegistration() { (void)registered; }

} // namespace gating

} // namespace dcg
