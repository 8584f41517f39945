// Fixture: "demo" is documented in EXPERIMENTS.md, "rogue" is not —
// only the latter must be flagged, although its registration is
// qualified and split across lines. The mention of rogue in this
// comment and in the string below must not satisfy the check.
#include "gating/registry.hh"

namespace {

const bool demo_ok = schemes().add(
    {"demo", "documented fixture scheme", {}},
    nullptr);

const bool rogue_bad = gating::schemes()
    .add({"rogue", "undocumented fixture scheme named rogue", {}},
         nullptr);

} // namespace
