// Fixture scheme: registered and listed in EXPERIMENTS.md. The check
// is lexical, so this file only has to look like a registration.
#include "gating/registry.hh"

namespace {

const bool registered = schemes().add(
    {"demo", "fixture demonstration scheme", {}},
    nullptr);

} // namespace
