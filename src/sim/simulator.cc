#include "sim/simulator.hh"

#include <ostream>

#include "common/log.hh"
#include "common/options.hh"
#include "gating/registry.hh"

namespace dcg {

bool
sameTiming(const SimConfig &a, const SimConfig &b)
{
    return a.core == b.core && a.bpred == b.bpred && a.mem == b.mem &&
           a.seed == b.seed && a.skipAhead == b.skipAhead;
}

Simulator::Simulator(const Profile &profile, const SimConfig &config)
    : Simulator(profile, std::vector<SimConfig>{config})
{
}

Simulator::Simulator(const Profile &profile,
                     const std::vector<SimConfig> &lanes)
    : prof(profile)
{
    if (lanes.empty())
        fatal("Simulator needs at least one scheme lane");
    cfg = lanes.front();
    for (const SimConfig &c : lanes) {
        const auto *entry = gating::schemes().find(c.scheme);
        if (lanes.size() > 1 && entry && !entry->info.timingNeutral)
            fatal("scheme '", c.scheme, "' is not timing-neutral and"
                  " cannot share a timing run with other lanes");
        if (!sameTiming(c, cfg))
            fatal("scheme lane '", c.scheme, "' differs from lane '",
                  cfg.scheme, "' in a timing field");
    }

    genP = std::make_unique<TraceGenerator>(prof, cfg.seed);
    memP = std::make_unique<MemoryHierarchy>(cfg.mem, statsP);
    bpredP = std::make_unique<BranchPredictor>(cfg.bpred, statsP);
    coreP = std::make_unique<Core>(cfg.core, *genP, *memP, *bpredP,
                                   statsP);
    laneV.reserve(lanes.size());
    for (const SimConfig &c : lanes) {
        Lane &lane = laneV.emplace_back();
        lane.power = std::make_unique<PowerModel>(
            c.core, c.tech, lane.stats, &memP->l2cache());
        lane.policy = gating::makePolicy(c, lane.stats);
    }
}

Simulator::~Simulator() = default;

void
Simulator::prewarmCaches()
{
    // The paper fast-forwards 2 billion instructions before measuring,
    // which leaves the code footprint and the hot data region resident.
    // Our synthetic workloads are stationary, so the equivalent is to
    // install those lines directly; the statistics reset after warm-up
    // discards the artificial accesses.
    const Addr iline = cfg.mem.l1i.lineBytes;
    const Addr l2line = cfg.mem.l2.lineBytes;
    for (Addr a = 0; a < prof.codeFootprintBytes; a += iline)
        memP->icache().warmLine(TraceGenerator::kCodeBase + a);
    for (Addr a = 0; a < prof.codeFootprintBytes; a += l2line)
        memP->l2cache().warmLine(TraceGenerator::kCodeBase + a);

    const Addr dline = cfg.mem.l1d.lineBytes;
    for (Addr a = 0; a < prof.memory.stackBytes; a += dline)
        memP->dcache().warmLine(TraceGenerator::kDataBase + a);

    // Stride-stream arrays (contiguous from the stream base; see
    // TraceGenerator::buildStreams).
    const Addr stream_base = TraceGenerator::kDataBase + 0x0100'0000;
    for (Addr a = 0; a < prof.memory.strideRegionBytes; a += dline)
        memP->dcache().warmLine(stream_base + a);
    for (Addr a = 0; a < prof.memory.strideRegionBytes; a += l2line)
        memP->l2cache().warmLine(stream_base + a);

    // The pointer region is part of the resident working set only when
    // it fits in the L2; bigger regions (mcf, lucas) miss by design.
    const Addr rand_base = TraceGenerator::kDataBase + 0x4000'0000;
    if (prof.memory.randomRegionBytes <= cfg.mem.l2.sizeBytes) {
        for (Addr a = 0; a < prof.memory.randomRegionBytes; a += l2line)
            memP->l2cache().warmLine(rand_base + a);
    }
}

void
Simulator::step()
{
    if (cfg.skipAhead) {
        if (const Cycle k = coreP->idleSkipAvailable()) {
            // The window is provably all-idle: charge its energy
            // through each scheme's bulk hook and jump the core. Zero
            // activity means zero utilisation contributions.
            for (Lane &lane : laneV)
                lane.policy->skipIdle(*coreP, k, *lane.power);
            coreP->skipIdle(k);
            measuredCycles += k;
            return;
        }
    }

    for (Lane &lane : laneV)
        lane.policy->beginCycle(*coreP);
    coreP->tick();
    const CycleActivity &act = coreP->activity();
    for (Lane &lane : laneV)
        lane.power->tick(act, lane.policy->gates(act));

    // Utilisation bookkeeping (measured window only; reset clears it).
    intUnitBusySum += act.fuBusyCount(FuType::IntAluUnit) +
                      act.fuBusyCount(FuType::IntMulDivUnit);
    fpUnitBusySum += act.fuBusyCount(FuType::FpAluUnit) +
                     act.fuBusyCount(FuType::FpMulDivUnit);
    unsigned gateable_flux = 0;
    for (unsigned p = 0; p < kNumLatchPhases; ++p) {
        if (latchPhaseGateable(static_cast<LatchPhase>(p)))
            gateable_flux += act.latchFlux[p];
    }
    latchFluxSum += gateable_flux;
    portUseSum += act.dcachePortsUsed;
    busUseSum += act.resultBusUsed;
    ++measuredCycles;
}

void
Simulator::resetMeasurement()
{
    statsP.resetAll();
    // The flat counter block must be zeroed with the registry: a later
    // fold would otherwise resurrect warm-up values resetAll discarded.
    coreP->resetStats();
    for (Lane &lane : laneV) {
        lane.stats.resetAll();
        lane.power->reset();
    }
    intUnitBusySum = 0;
    fpUnitBusySum = 0;
    latchFluxSum = 0;
    portUseSum = 0;
    busUseSum = 0;
    measuredCycles = 0;
}

void
Simulator::run(std::uint64_t instructions, std::uint64_t warmup)
{
    const std::uint64_t cycle_cap =
        (instructions + warmup) * 100 + 1'000'000;

    prewarmCaches();
    while (coreP->committedInsts() < warmup) {
        step();
        if (coreP->cycle() > cycle_cap)
            fatal("simulation deadlock during warm-up (",
                  coreP->committedInsts(), " committed)");
    }
    resetMeasurement();

    while (coreP->committedInsts() < instructions) {
        step();
        if (coreP->cycle() > cycle_cap)
            fatal("simulation deadlock (", coreP->committedInsts(),
                  " committed)");
    }
}

void
Simulator::foldStats(const Lane &lane) const
{
    // Fold the hot-path counter blocks into the registries so formulas
    // (IPC, average power) evaluate against current values.
    coreP->foldStats();
    lane.power->foldStats();
}

RunResult
Simulator::result(std::size_t lane) const
{
    const Lane &l = laneV.at(lane);
    foldStats(l);
    const PowerModel &pm = *l.power;

    RunResult r;
    r.benchmark = prof.name;
    r.scheme = l.policy->name();
    r.instructions = coreP->committedInsts();
    r.cycles = measuredCycles;
    r.ipc = measuredCycles
        ? static_cast<double>(r.instructions) /
          static_cast<double>(measuredCycles)
        : 0.0;

    r.totalEnergyPJ = pm.totalEnergyPJ();
    r.avgPowerW = pm.averagePowerW();
    for (unsigned c = 0; c < kNumPowerComponents; ++c)
        r.componentPJ[c] = pm.energyPJ(static_cast<PowerComponent>(c));
    r.intUnitsPJ = pm.intUnitsEnergyPJ();
    r.fpUnitsPJ = pm.fpUnitsEnergyPJ();
    r.latchPJ = pm.latchEnergyPJ();
    r.dcachePJ = pm.dcacheEnergyPJ();
    r.resultBusPJ = pm.resultBusEnergyPJ();

    const auto cyc = static_cast<double>(measuredCycles);
    if (cyc > 0) {
        const CoreConfig &cc = cfg.core;
        const double int_units = cc.fuCount[0] + cc.fuCount[1];
        const double fp_units = cc.fuCount[2] + cc.fuCount[3];
        unsigned gateable_phases = 0;
        for (unsigned p = 0; p < kNumLatchPhases; ++p) {
            if (latchPhaseGateable(static_cast<LatchPhase>(p)))
                ++gateable_phases;
        }
        r.intUnitUtil = intUnitBusySum / (cyc * int_units);
        r.fpUnitUtil = fpUnitBusySum / (cyc * fp_units);
        r.latchUtil = latchFluxSum /
                      (cyc * gateable_phases * cc.issueWidth);
        r.dcachePortUtil = portUseSum / (cyc * cc.dcachePorts);
        r.resultBusUtil = busUseSum / (cyc * cc.numResultBuses);
    }

    r.branchAccuracy = bpredP->accuracy();
    r.l1dMissRate = memP->dcache().missRate();
    return r;
}

double
Simulator::stat(const std::string &name, std::size_t lane) const
{
    const Lane &l = laneV.at(lane);
    foldStats(l);
    return statsP.contains(name) ? statsP.lookup(name)
                                 : l.stats.lookup(name);
}

void
Simulator::dumpStats(std::ostream &os, std::size_t lane) const
{
    const Lane &l = laneV.at(lane);
    foldStats(l);
    statsP.dump(os, l.stats);
}

std::uint64_t
defaultBenchInstructions()
{
    return static_cast<std::uint64_t>(
        Options::envInt("DCG_BENCH_INSTS", 150'000));
}

std::uint64_t
defaultBenchWarmup()
{
    return static_cast<std::uint64_t>(
        Options::envInt("DCG_BENCH_WARMUP", 60'000));
}

RunResult
runBenchmark(const Profile &profile, const SimConfig &config,
             std::uint64_t instructions, std::uint64_t warmup)
{
    if (instructions == 0)
        instructions = defaultBenchInstructions();
    if (warmup == 0)
        warmup = defaultBenchWarmup();
    Simulator sim(profile, config);
    sim.run(instructions, warmup);
    return sim.result();
}

} // namespace dcg
