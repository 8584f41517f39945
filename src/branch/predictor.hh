/**
 * @file
 * Front-end branch prediction facade: two-level direction predictor +
 * BTB (+ RAS, unused by the synthetic workloads). The core asks for a
 * prediction at fetch and trains at branch resolution.
 */

#ifndef DCG_BRANCH_PREDICTOR_HH
#define DCG_BRANCH_PREDICTOR_HH

#include <vector>

#include "branch/bimodal.hh"
#include "branch/btb.hh"
#include "branch/ras.hh"
#include "branch/two_level.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dcg {

/** Direction-predictor organisation. */
enum class DirectionKind
{
    TwoLevel,  ///< Table 1's 2-level adaptive predictor (default)
    Bimodal,   ///< per-PC 2-bit counters
    Hybrid     ///< 21264-style: chooser between the two above
};

/** Sizing knobs, defaulting to Table 1 of the paper. */
struct BranchPredictorConfig
{
    DirectionKind kind = DirectionKind::TwoLevel;
    unsigned l1Entries = 8192;
    unsigned l2Entries = 8192;
    unsigned historyBits = 12;
    unsigned btbEntries = 8192;
    unsigned btbAssoc = 4;
    unsigned rasEntries = 32;
    unsigned bimodalEntries = 8192;
    unsigned chooserEntries = 8192;

    bool operator==(const BranchPredictorConfig &) const = default;
};

/** The front end's view of one prediction. */
struct BranchPrediction
{
    bool taken = false;
    Addr target = 0;       ///< valid when taken and btbHit
    bool btbHit = false;
};

class BranchPredictor
{
  public:
    BranchPredictor(const BranchPredictorConfig &config,
                    StatRegistry &stats);

    BranchPrediction predict(Addr pc);

    /**
     * Train with the actual outcome.
     *
     * @param pred the prediction the front end acted on at fetch
     * @return true when that prediction was correct (direction and,
     *         for taken branches, target)
     */
    bool resolve(Addr pc, const BranchPrediction &pred, bool taken,
                 Addr target);

    double accuracy() const;

  private:
    bool directionPredict(Addr pc) const;
    void directionUpdate(Addr pc, bool taken);
    unsigned chooserIndex(Addr pc) const;

    DirectionKind kind;
    TwoLevelPredictor twoLevel;
    BimodalPredictor bimodal;
    /** Hybrid chooser: >=2 selects the two-level component. */
    std::vector<std::uint8_t> chooser;
    unsigned chooserMask;
    Btb btb;
    Ras ras;

    Counter &lookups;
    Counter &correct;
    Counter &dirMispredicts;
    Counter &btbMisses;
};

} // namespace dcg

#endif // DCG_BRANCH_PREDICTOR_HH
