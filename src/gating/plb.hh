/**
 * @file
 * Pipeline Balancing (PLB) — the paper's comparison baseline, after
 * Bahar & Manne [1], re-implemented for the non-clustered 8-wide core
 * exactly as the paper's Section 4.3 describes:
 *
 *  - 256-cycle sampling windows;
 *  - primary trigger: issue IPC of the previous window; secondary:
 *    FP issue IPC and mode history (damps spurious transitions);
 *  - three issue modes: 8-wide (normal), 6-wide and 4-wide (low power);
 *  - 6-wide disables 1 intALU, 1 fpALU, 1 fpMulDiv;
 *    4-wide disables 3 intALU, 1 intMulDiv, 2 fpALU, 2 fpMulDiv and
 *    (PLB-ext only) one D-cache port;
 *  - PLB-orig clock-gates the disabled execution units and a
 *    proportional slice of the issue queue; PLB-ext additionally gates
 *    latch slices, the D-cache decoder port and result buses.
 *
 * Exact trigger thresholds are not published; the constants in plb.cc
 * are our calibration (see DESIGN.md Sec 2) chosen to land PLB in the
 * paper's reported band (~3 % performance loss, ~6 % / ~10 % power
 * savings).
 */

#ifndef DCG_GATING_PLB_HH
#define DCG_GATING_PLB_HH

#include "common/stats.hh"
#include "gating/policy.hh"

namespace dcg {

struct PlbConfig
{
    /** Sampling-window length (bench/ablation_plb_window sweeps it). */
    unsigned windowCycles = 256;
};

class PlbController : public GatingPolicy
{
  public:
    /**
     * @param extended  PLB-ext: also gate latches, one D-cache port
     *                  and result buses (Sec 4.3); false is PLB-orig.
     */
    PlbController(const CoreConfig &core_cfg, const PlbConfig &cfg,
                  bool extended, StatRegistry &stats);

    void beginCycle(Core &core) override;
    GateState gates(const CycleActivity &act) override;

    const char *name() const override
    { return extended ? "plb-ext" : "plb-orig"; }

    /** Current issue mode (8, 6 or 4). */
    unsigned mode() const { return curMode; }

  private:
    void applyMode(Core &core, unsigned mode);
    unsigned desiredMode(double ipc, double fp_ipc) const;

    CoreConfig coreCfg;
    PlbConfig cfg;
    bool extended;

    unsigned curMode = 8;
    unsigned pendingDownMode = 8;
    unsigned pendingDownCount = 0;

    /** Current-window accumulators. */
    std::uint64_t windowIssued = 0;
    std::uint64_t windowFpIssued = 0;
    unsigned windowCycles = 0;

    Counter &windows8;
    Counter &windows6;
    Counter &windows4;
    Counter &transitions;
};

} // namespace dcg

#endif // DCG_GATING_PLB_HH
