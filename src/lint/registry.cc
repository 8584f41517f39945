#include "lint/registry.hh"

namespace dcg::lint {

// Anchors defined in the check translation units (see registry.hh:
// they keep the self-registration statics in the binary).
void anchorActivityCounterCheckRegistration();
void anchorStatReportCheckRegistration();
void anchorSchemeRegistryCheckRegistration();
void anchorSyscallReturnCheckRegistration();
void anchorNetIoCheckRegistration();
void anchorNakedNewCheckRegistration();
void anchorThreadOwnershipCheckRegistration();
void anchorDeterminismCheckRegistration();
void anchorTickPathStatsCheckRegistration();

namespace {

void
builtins()
{
    anchorActivityCounterCheckRegistration();
    anchorStatReportCheckRegistration();
    anchorSchemeRegistryCheckRegistration();
    anchorSyscallReturnCheckRegistration();
    anchorNetIoCheckRegistration();
    anchorNakedNewCheckRegistration();
    anchorThreadOwnershipCheckRegistration();
    anchorDeterminismCheckRegistration();
    anchorTickPathStatsCheckRegistration();
}

} // namespace

Registry<CheckInfo, CheckFn> &
checks()
{
    static Registry<CheckInfo, CheckFn> registry("check", &builtins);
    return registry;
}

} // namespace dcg::lint
