/**
 * @file
 * The gating-scheme registry.
 *
 * A scheme is one file and one registration: the scheme's translation
 * unit self-registers a SchemeInfo (name, one-line description with
 * paper provenance, config knobs) plus a factory that builds its
 * GatingPolicy from a SimConfig. Everything that enumerates or selects
 * schemes — dcgsim (--scheme validation, --list-schemes, usage text),
 * the figure/ablation drivers, exp::Grid expansion, JobSpec/GridSpec
 * validation on the wire, and the report layer's results schema — goes
 * through schemes(), so adding a scheme never touches a switch
 * statement.
 *
 * Registration pattern (in the scheme's .cc; the table, its lookups
 * and its refusals are common/registry.hh's):
 *
 *     namespace { const bool registered = schemes().add(
 *         {"myscheme", "what it gates (Paper et al.)",
 *          {{"knob", "what it does", "default"}},
 *          false},  // timingNeutral; see SchemeInfo
 *         [](const SimConfig &cfg, StatRegistry &stats) {
 *             return std::make_unique<MyController>(cfg.core,
 *                                                   cfg.myscheme, stats);
 *         }); }
 *     void anchorMySchemeRegistration() {}
 *
 * registry.cc's builtins hook calls every scheme's anchor, which keeps
 * the registration objects in a statically linked binary.
 *
 * The factory signature takes SimConfig by forward declaration only:
 * scheme implementations include sim/simulator.hh for the definition
 * (a header-only back-reference; the gating library gains no link
 * dependency on dcg_sim).
 */

#ifndef DCG_GATING_REGISTRY_HH
#define DCG_GATING_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.hh"

namespace dcg {

struct SimConfig;
class StatRegistry;
class GatingPolicy;

namespace gating {

/** One scheme configuration knob, for catalogs and usage text. */
struct SchemeKnob
{
    std::string name;
    std::string description;
    std::string defaultValue;
};

/** Everything the catalog knows about one registered scheme. */
struct SchemeInfo
{
    std::string name;
    std::string description;  ///< one line, names the source paper
    std::vector<SchemeKnob> knobs;

    /**
     * The scheme never alters the core's behaviour: beginCycle() and
     * skipIdle() leave the core untouched, so every run is
     * cycle-identical to base on the same trace. Such a scheme may
     * share one timing run with others as a Simulator lane. Declare it
     * only when the lane-equivalence sweep in
     * tests/sim/scheme_sweep_test.cc proves it.
     */
    bool timingNeutral = false;
};

/** Builds the scheme's policy; stats registrations happen inside. */
using SchemeFactory = std::function<std::unique_ptr<GatingPolicy>(
    const SimConfig &, StatRegistry &)>;

/** The scheme registry; lookups run the builtins anchors first. */
Registry<SchemeInfo, SchemeFactory> &schemes();

/**
 * Build the gating policy for @p config's scheme string; fatal() on an
 * unregistered name (callers with non-fatal needs look the name up in
 * schemes() first — JobSpec::validate does).
 */
std::unique_ptr<GatingPolicy> makePolicy(const SimConfig &config,
                                         StatRegistry &stats);

} // namespace gating
} // namespace dcg

#endif // DCG_GATING_REGISTRY_HH
