/**
 * @file
 * Registry entry for the baseline machine (no clock gating ever) —
 * the denominator of every figure. The policy class itself (NoGating)
 * lives in policy.hh alongside the interface.
 */

#include "gating/policy.hh"
#include "gating/registry.hh"
#include "sim/simulator.hh"

namespace dcg::gating {

namespace {

const bool registered = registerScheme(
    {"base",
     "baseline, nothing clock-gated (paper Sec 5.1 denominator)",
     {},
     true},
    [](const SimConfig &cfg, StatRegistry &stats) {
        (void)cfg;
        (void)stats;
        return std::make_unique<NoGating>();
    });

} // namespace

void anchorBaseSchemeRegistration() { (void)registered; }

} // namespace dcg::gating
