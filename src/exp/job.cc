#include "exp/job.hh"

#include <bit>

namespace dcg::exp {

namespace {

/**
 * Canonical field serialiser. Integers print in decimal, doubles as
 * their exact IEEE-754 bit pattern; every value is '|'-terminated so
 * adjacent fields can never merge ("1","23" vs "12","3").
 */
class KeyStream
{
  public:
    KeyStream &operator<<(const std::string &s)
    {
        // Length-prefix strings so embedded separators stay unambiguous.
        buf += std::to_string(s.size());
        buf += ':';
        buf += s;
        buf += '|';
        return *this;
    }

    KeyStream &operator<<(double d)
    {
        return *this << std::bit_cast<std::uint64_t>(d);
    }

    KeyStream &operator<<(bool b) { return *this << std::uint64_t{b}; }

    template <typename T>
        requires std::is_integral_v<T> || std::is_enum_v<T>
    KeyStream &operator<<(T v)
    {
        buf += std::to_string(static_cast<std::uint64_t>(v));
        buf += '|';
        return *this;
    }

    const std::string &str() const { return buf; }

  private:
    std::string buf;
};

void
serialize(KeyStream &ks, const Profile &p)
{
    ks << p.name << p.isFp;
    for (double m : p.mix)
        ks << m;
    ks << p.deps.srcReadyProb << p.deps.frac2Src << p.deps.depGeoP
       << p.deps.depDistCap;
    ks << p.branches.fracStronglyTaken << p.branches.fracStronglyNotTaken
       << p.branches.fracLoop << p.branches.fracRandom;
    ks << p.memory.fracStack << p.memory.fracStride
       << p.memory.fracRandom << p.memory.stackBytes
       << p.memory.strideRegionBytes << p.memory.randomRegionBytes
       << p.memory.numStrideStreams << p.memory.strideBytes;
    ks << p.phases.lowIlpFraction << p.phases.meanPhaseLen
       << p.phases.lowReadyScale << p.phases.lowGeoScale
       << p.phases.lowMissScale;
    ks << p.numStaticBranches << p.codeFootprintBytes;
}

void
serialize(KeyStream &ks, const CacheGeometry &g)
{
    ks << g.sizeBytes << g.assoc << g.lineBytes << g.hitLatency
       << g.mshrs;
}

/** The core, predictor and memory fields of @p c (jobKey's prefix). */
void
serializeTimingStack(KeyStream &ks, const SimConfig &c)
{
    const CoreConfig &core = c.core;
    ks << core.fetchWidth << core.renameWidth << core.issueWidth
       << core.commitWidth << core.windowSize << core.lsqSize
       << core.storeBufferSize;
    for (unsigned n : core.fuCount)
        ks << n;
    ks << core.dcachePorts << core.numResultBuses << core.operandBits
       << core.controlBitsPerSlot;
    ks << core.depth.fetch << core.depth.decode << core.depth.rename
       << core.depth.issue << core.depth.read << core.depth.mem
       << core.depth.wb;
    ks << core.sequentialPriority << core.delayStoresOneCycle
       << core.modelWrongPathFetch;

    const BranchPredictorConfig &b = c.bpred;
    ks << b.kind << b.l1Entries << b.l2Entries << b.historyBits
       << b.btbEntries << b.btbAssoc << b.rasEntries << b.bimodalEntries
       << b.chooserEntries;

    serialize(ks, c.mem.l1i);
    serialize(ks, c.mem.l1d);
    serialize(ks, c.mem.l2);
    ks << c.mem.memLatency;
}

void
serialize(KeyStream &ks, const SimConfig &c)
{
    serializeTimingStack(ks, c);

    const Technology &t = c.tech;
    ks << t.vdd << t.frequencyGHz << t.latchBitCap << t.clockWiringCap
       << t.intAluClockCap << t.intMulDivClockCap << t.fpAluClockCap
       << t.fpMulDivClockCap << t.intAluOpCap << t.intMulDivOpCap
       << t.fpAluOpCap << t.fpMulDivOpCap << t.dcacheDecoderCap
       << t.dcacheArrayAccessCap << t.icacheAccessCap
       << t.fetchPerInstCap << t.bpredAccessCap << t.renameOpCap
       << t.iqClockCap << t.iqWakeupCap << t.iqSelectCap << t.regReadCap
       << t.regWriteCap << t.lsqOpCap << t.robOpCap
       << t.resultBusClockCap << t.resultBusDriveCap << t.l2AccessCap;

    ks << c.scheme << c.dcg.gateIssueQueue << c.plb.windowCycles;
    ks << c.seed;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::uint64_t
Job::resolvedInstructions() const
{
    return instructions ? instructions : defaultBenchInstructions();
}

std::uint64_t
Job::resolvedWarmup() const
{
    return warmup ? warmup : defaultBenchWarmup();
}

Job
makeJob(const Profile &profile, const SimConfig &config,
        std::uint64_t instructions, std::uint64_t warmup)
{
    Job j;
    j.profile = profile;
    j.config = config;
    j.instructions = instructions;
    j.warmup = warmup;
    return j;
}

std::uint64_t
deriveJobSeed(const Job &job)
{
    KeyStream ks;
    serialize(ks, job.profile);
    return splitmix(job.config.seed ^ fnv1a(ks.str()));
}

std::string
timingKey(const Job &job)
{
    KeyStream ks;
    serialize(ks, job.profile);
    serializeTimingStack(ks, job.config);
    ks << job.config.seed << job.config.skipAhead;
    ks << job.resolvedInstructions() << job.resolvedWarmup();
    return ks.str();
}

std::string
jobKey(const Job &job)
{
    KeyStream ks;
    serialize(ks, job.profile);
    serialize(ks, job.config);
    ks << job.resolvedInstructions() << job.resolvedWarmup();
    for (const std::string &name : job.captureStats)
        ks << name;
    return ks.str();
}

} // namespace dcg::exp
