/**
 * @file
 * Online synthetic trace generator.
 *
 * Produces an endless, deterministic (per seed) stream of MicroOps that
 * realises a Profile: stable static branches with learnable behaviour,
 * structured memory address streams, and geometric register-dependence
 * distances.
 */

#ifndef DCG_TRACE_GENERATOR_HH
#define DCG_TRACE_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "isa/inst_source.hh"
#include "isa/micro_op.hh"
#include "trace/profile.hh"

namespace dcg {

class TraceGenerator : public InstSource
{
  public:
    TraceGenerator(const Profile &profile, std::uint64_t seed = 1);

    /** Generate the next dynamic instruction. */
    MicroOp next() override;

    const Profile &profile() const { return prof; }

    /** Dynamic instructions generated so far. */
    InstSeq generated() const { return count; }

    /** True while the generator is in the low-ILP program phase. */
    bool inLowIlpPhase() const { return lowPhase; }

    /** Base of the synthetic code region (for I-cache modelling). */
    static constexpr Addr kCodeBase = 0x0040'0000;
    /** Base of the synthetic data region. */
    static constexpr Addr kDataBase = 0x1000'0000;

  private:
    /** Behaviour class of a static branch. */
    enum class BranchKind : std::uint8_t
    { StronglyTaken, StronglyNotTaken, Loop, Random };

    struct StaticBranch
    {
        Addr pc;
        Addr target;
        BranchKind kind;
        /** Rng::drawsBelow(taken probability); unused for Loop. */
        std::uint64_t takenBelow;
        unsigned loopPeriod;   ///< for Loop kind
        unsigned loopCount;    ///< dynamic loop position
    };

    struct StrideStream
    {
        Addr base;
        Addr pos;
        Addr regionBytes;
        unsigned stride;
    };

    /** The draws whose distribution changes with the program phase. */
    struct PhaseSamplers
    {
        DiscreteSampler mem;        ///< stack / stride / pointer access
        BernoulliSampler srcReady;  ///< operand has no in-flight producer
        GeometricSampler depDist;   ///< producer distance - 1
    };

    static PhaseSamplers phaseSamplers(const Profile &prof, bool low);

    void buildBranches();
    void buildStreams();

    Addr nextDataAddr();
    void fillDeps(MicroOp &op);
    Addr wrapCode(Addr pc) const;
    void advancePhase();

    Profile prof;
    Rng rng;
    DiscreteSampler mixSampler;
    BernoulliSampler twoSrcs;
    PhaseSamplers high;   ///< the profile's own parameters
    PhaseSamplers low;    ///< scaled for the low-ILP phase

    std::vector<StaticBranch> branchTable;
    std::vector<StrideStream> streams;

    Addr curPc;
    Addr stackPtr;
    InstSeq count = 0;

    /** Program-phase state (PLB exploits within-program ILP swings). */
    bool lowPhase = false;
    InstSeq phaseLeft = 0;
};

} // namespace dcg

#endif // DCG_TRACE_GENERATOR_HH
