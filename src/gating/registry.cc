#include "gating/registry.hh"

#include "common/log.hh"
#include "sim/simulator.hh"

namespace dcg::gating {

// Anchors defined in the scheme translation units (see registry.hh:
// they keep the self-registration statics in the binary).
void anchorBaseSchemeRegistration();
void anchorDcgSchemeRegistration();
void anchorPlbSchemeRegistration();
void anchorDdcgSchemeRegistration();
void anchorCgoooSchemeRegistration();

namespace {

void
builtins()
{
    anchorBaseSchemeRegistration();
    anchorDcgSchemeRegistration();
    anchorPlbSchemeRegistration();
    anchorDdcgSchemeRegistration();
    anchorCgoooSchemeRegistration();
}

} // namespace

Registry<SchemeInfo, SchemeFactory> &
schemes()
{
    static Registry<SchemeInfo, SchemeFactory> registry("scheme",
                                                        &builtins);
    return registry;
}

std::unique_ptr<GatingPolicy>
makePolicy(const SimConfig &config, StatRegistry &stats)
{
    const auto *entry = schemes().find(config.scheme);
    if (!entry)
        fatal("unknown gating scheme '", config.scheme, "' (expected ",
              schemes().joined(), ")");
    return entry->fn(config, stats);
}

} // namespace dcg::gating
