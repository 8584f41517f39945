/**
 * @file
 * Core configuration: widths, window sizes, functional-unit pool and
 * pipeline depth. Defaults reproduce Table 1 of the paper (8-way issue,
 * 128-entry window, 64-entry LSQ, 6 iALU / 2 iMulDiv / 4 fpALU /
 * 4 fpMulDiv, 8-stage pipeline).
 */

#ifndef DCG_PIPELINE_CONFIG_HH
#define DCG_PIPELINE_CONFIG_HH

#include <array>
#include <cstdint>

#include "isa/op_class.hh"

namespace dcg {

/**
 * Pipeline-latch groups, one per stage boundary of the 8-stage model in
 * Figure 3 of the paper. Deeper pipelines (Figure 17) multiply the
 * sub-latch count of individual phases via DepthConfig.
 */
enum class LatchPhase : std::uint8_t
{
    FetchOut,   ///< fetch -> decode    (never gated: pre-decode)
    DecodeOut,  ///< decode -> rename   (never gated per paper Sec 2.2.1)
    RenameOut,  ///< rename -> issue    (DCG-gated; set up during rename)
    IssueOut,   ///< issue -> regread   (never gated: no setup time)
    ReadOut,    ///< regread -> execute (DCG-gated via one-hot encoding)
    ExecOut,    ///< execute -> memory  (DCG-gated)
    MemOut,     ///< memory -> wb       (DCG-gated)
    WbOut,      ///< wb -> retirement   (DCG-gated)
    NumLatchPhases
};

inline constexpr unsigned kNumLatchPhases =
    static_cast<unsigned>(LatchPhase::NumLatchPhases);

/**
 * True for phases DCG is allowed to gate (paper Sections 2.2.1/3.2).
 * Inline: the gating controllers ask this per phase per cycle.
 */
inline bool
latchPhaseGateable(LatchPhase phase)
{
    switch (phase) {
      case LatchPhase::FetchOut:
      case LatchPhase::DecodeOut:
      case LatchPhase::IssueOut:
        return false;
      default:
        return true;
    }
}

const char *latchPhaseName(LatchPhase phase);

/**
 * Number of physical stages per logical phase. The sum (+1 for
 * execute) is the pipeline depth: the default adds up to the paper's
 * 8-stage baseline; deepPipeline() yields the 20-stage machine of
 * Figure 17.
 */
struct DepthConfig
{
    unsigned fetch = 1;
    unsigned decode = 1;
    unsigned rename = 1;
    unsigned issue = 1;
    unsigned read = 1;
    unsigned mem = 1;
    unsigned wb = 1;

    unsigned totalStages() const
    { return fetch + decode + rename + issue + read + 1 + mem + wb; }

    /** Latch groups belonging to one phase. */
    unsigned groupsFor(LatchPhase phase) const;

    bool operator==(const DepthConfig &) const = default;
};

/** The 20-stage configuration used for Figure 17. */
DepthConfig deepPipeline();

struct CoreConfig
{
    unsigned fetchWidth = 8;
    unsigned renameWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;

    unsigned windowSize = 128;   ///< ROB / instruction window entries
    unsigned lsqSize = 64;
    unsigned storeBufferSize = 16;

    /** Functional-unit pool, indexed by FuType. */
    std::array<unsigned, kNumFuTypes> fuCount{6, 2, 4, 4};

    unsigned dcachePorts = 2;
    unsigned numResultBuses = 8;

    /** Operand width in bits (drives latch sizing). */
    unsigned operandBits = 64;
    /** Non-operand payload bits per latch slot (opcode, tags, ...). */
    unsigned controlBitsPerSlot = 40;

    DepthConfig depth;

    /**
     * FU allocation policy: true = the paper's sequential priority
     * (Sec 3.1); false = round-robin (ablation).
     */
    bool sequentialPriority = true;

    /**
     * Store clock-gate setup (paper Sec 3.3): false = advance knowledge
     * available (case 1); true = delay stores one cycle (case 2,
     * ablation).
     */
    bool delayStoresOneCycle = false;

    /**
     * Model wrong-path fetch power: while a mispredicted branch is
     * unresolved, the front end keeps fetching down the wrong path,
     * burning I-cache/fetch energy (and polluting the I-cache) without
     * architectural effect. Off by default to match the headline
     * experiments; bench/ablation_wrongpath quantifies it. The wrong
     * path never reaches rename, but its I-cache pollution can shift
     * timing marginally (as in real machines).
     */
    bool modelWrongPathFetch = false;

    /** Maximum instance count any FU type may have. */
    static constexpr unsigned kMaxFuPerType = 16;

    bool operator==(const CoreConfig &) const = default;
};

/** Timing offsets derived from a CoreConfig (see core.cc for use). */
struct PipeTiming
{
    explicit PipeTiming(const CoreConfig &cfg);

    /** fetch -> earliest rename. */
    unsigned fetchToRename;
    /** rename -> earliest select. */
    unsigned renameToSelect;
    /** select -> execute start (register read stages + 1). */
    unsigned selectToExec;
    /** execute end -> result-bus drive. */
    unsigned execToWb;
    /** result-bus drive -> commit eligibility. */
    unsigned wbToCommit;
};

} // namespace dcg

#endif // DCG_PIPELINE_CONFIG_HH
