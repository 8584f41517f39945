#include "trace/generator.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"

namespace dcg {

TraceGenerator::TraceGenerator(const Profile &profile, std::uint64_t seed)
    : prof(profile),
      rng(seed ^ 0xdc6'0a7e5u),
      mixSampler(std::vector<double>(prof.mix.begin(), prof.mix.end())),
      twoSrcs(prof.deps.frac2Src),
      high(phaseSamplers(prof, false)),
      low(phaseSamplers(prof, true)),
      curPc(kCodeBase),
      stackPtr(kDataBase)
{
    DCG_ASSERT(prof.numStaticBranches > 0, "profile needs static branches");
    DCG_ASSERT(prof.codeFootprintBytes >= 4096, "code footprint too small");
    buildBranches();
    buildStreams();
    lowPhase = true;   // first advancePhase() flips to the high phase
    advancePhase();
}

TraceGenerator::PhaseSamplers
TraceGenerator::phaseSamplers(const Profile &prof, bool low)
{
    const MemoryBehavior &mb = prof.memory;
    const DependenceBehavior &d = prof.deps;
    std::vector<double> mem{mb.fracStack, mb.fracStride, mb.fracRandom};
    double ready_p = d.srcReadyProb;
    double geo_p = d.depGeoP;
    if (low) {
        // Low-ILP phases have fewer ready operands, shorter dependence
        // distances, and lean harder on the pointer region.
        const PhaseBehavior &ph = prof.phases;
        const double boosted = std::min(1.0, mb.fracRandom *
                                        ph.lowMissScale);
        const double rest = mb.fracStack + mb.fracStride;
        const double scale = rest > 0.0 ? (1.0 - boosted) / rest : 0.0;
        mem = {mb.fracStack * scale, mb.fracStride * scale, boosted};
        ready_p *= ph.lowReadyScale;
        geo_p = std::min(0.95, geo_p * ph.lowGeoScale);
    }
    return {DiscreteSampler(mem), BernoulliSampler(ready_p),
            GeometricSampler(geo_p, d.depDistCap - 1)};
}

void
TraceGenerator::advancePhase()
{
    const PhaseBehavior &ph = prof.phases;
    if (ph.lowIlpFraction <= 0.0 || ph.lowIlpFraction >= 1.0) {
        lowPhase = ph.lowIlpFraction >= 1.0;
        phaseLeft = std::numeric_limits<InstSeq>::max();
        return;
    }
    // Alternate phases with geometric segment lengths; the high phase
    // mean is scaled so the long-run low-ILP instruction fraction is
    // lowIlpFraction.
    lowPhase = !lowPhase;
    const double f = ph.lowIlpFraction;
    const double mean_low = std::max(64.0, ph.meanPhaseLen);
    const double mean = lowPhase ? mean_low
                                 : mean_low * (1.0 - f) / f;
    phaseLeft = 1 + rng.geometric(std::min(0.5, 1.0 / mean), 1u << 22);
}

void
TraceGenerator::buildBranches()
{
    const BranchMixture &bm = prof.branches;
    DiscreteSampler kinds({bm.fracStronglyTaken, bm.fracStronglyNotTaken,
                           bm.fracLoop, bm.fracRandom});
    // Taken threshold by BranchKind; a Loop branch follows its period.
    const std::uint64_t takenBelow[] = {Rng::drawsBelow(0.995),
                                        Rng::drawsBelow(0.005), 0,
                                        Rng::drawsBelow(0.5)};

    branchTable.reserve(prof.numStaticBranches);
    for (unsigned i = 0; i < prof.numStaticBranches; ++i) {
        StaticBranch br;
        // Spread branch PCs over the code footprint; keep them 4-aligned
        // and distinct per index so predictor entries are stable.
        br.pc = wrapCode(kCodeBase +
                         rng.nextBounded(prof.codeFootprintBytes / 4) * 4);
        // Mostly short backward/forward targets within the footprint.
        br.target = wrapCode(kCodeBase +
                             rng.nextBounded(prof.codeFootprintBytes / 4)
                             * 4);
        br.kind = static_cast<BranchKind>(kinds.sample(rng));
        br.takenBelow = takenBelow[static_cast<unsigned>(br.kind)];
        br.loopPeriod = static_cast<unsigned>(rng.uniformInt(4, 24));
        br.loopCount = 0;
        branchTable.push_back(br);
    }
}

void
TraceGenerator::buildStreams()
{
    const MemoryBehavior &mb = prof.memory;
    streams.reserve(mb.numStrideStreams);
    for (unsigned i = 0; i < mb.numStrideStreams; ++i) {
        StrideStream s;
        s.regionBytes = mb.strideRegionBytes / mb.numStrideStreams;
        if (s.regionBytes < 64)
            s.regionBytes = 64;
        s.base = kDataBase + 0x0100'0000 +
                 static_cast<Addr>(i) * s.regionBytes;
        s.pos = 0;
        s.stride = mb.strideBytes;
        streams.push_back(s);
    }
}

Addr
TraceGenerator::wrapCode(Addr pc) const
{
    // Every pc passed here is less than one footprint past the region
    // (a wrapped pc + 4, or an in-range offset), so one subtract is the
    // modulo.
    Addr off = pc - kCodeBase;
    if (off >= prof.codeFootprintBytes)
        off -= prof.codeFootprintBytes;
    return kCodeBase + (off & ~Addr{3});
}

Addr
TraceGenerator::nextDataAddr()
{
    const MemoryBehavior &mb = prof.memory;
    switch ((lowPhase ? low : high).mem.sample(rng)) {
      case 0: {
        // Stack: short strided walks within a small hot region.
        stackPtr += 8;
        if (stackPtr >= kDataBase + mb.stackBytes)
            stackPtr = kDataBase;
        return stackPtr;
      }
      case 1: {
        // Streaming: advance one of the stride streams.
        auto &s = streams[rng.nextBounded(streams.size())];
        s.pos += s.stride;
        if (s.pos >= s.regionBytes)
            s.pos = 0;
        return s.base + s.pos;
      }
      default: {
        // Pointer chasing: uniform over a (possibly huge) region.
        const Addr region = mb.randomRegionBytes ? mb.randomRegionBytes
                                                 : 4096;
        return kDataBase + 0x4000'0000 + (rng.nextBounded(region) & ~Addr{7});
      }
    }
}

void
TraceGenerator::fillDeps(MicroOp &op)
{
    const PhaseSamplers &ph = lowPhase ? low : high;
    op.numSrcs = twoSrcs.sample(rng) ? 2 : 1;
    for (unsigned i = 0; i < op.numSrcs; ++i)
        op.srcDist[i] = ph.srcReady.sample(rng)
            ? 0 : 1 + ph.depDist.sample(rng);
}

MicroOp
TraceGenerator::next()
{
    MicroOp op;
    op.cls = static_cast<OpClass>(mixSampler.sample(rng));

    if (op.cls == OpClass::Branch) {
        StaticBranch &br = branchTable[rng.nextBounded(branchTable.size())];
        op.pc = br.pc;
        op.target = br.target;
        op.taken = br.kind == BranchKind::Loop
            ? (++br.loopCount % br.loopPeriod) != 0
            : rng.below(br.takenBelow);
        curPc = op.taken ? br.target : wrapCode(br.pc + 4);
    } else {
        op.pc = curPc;
        curPc = wrapCode(curPc + 4);
    }

    if (op.isMem())
        op.effAddr = nextDataAddr();

    fillDeps(op);
    if (op.cls == OpClass::Store) {
        op.numSrcs = 2;  // address and data
        if (op.srcDist[1] == 0 && op.srcDist[0] == 0) {
            // keep stores occasionally dependent on recent producers
            // (drawn with the profile's own parameters in both phases)
            op.srcDist[1] = high.srcReady.sample(rng)
                ? 0 : 1 + high.depDist.sample(rng);
        }
    }

    ++count;
    if (--phaseLeft == 0)
        advancePhase();
    return op;
}

} // namespace dcg
