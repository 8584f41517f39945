/**
 * @file
 * The dcglint check registry.
 *
 * A check is one translation unit and one registration: the check's
 * .cc self-registers a CheckInfo (name, one-line description, the
 * anchor files it keys on) plus the function that produces its
 * diagnostics from a shared analysis Context. Everything that
 * enumerates or selects checks — dcglint (--check validation,
 * --list-checks, usage text), runChecks(), the registry ctest, the
 * SARIF rule table and the ANALYSIS.md check table — goes through
 * checks(), so adding a check never touches a hard-wired list.
 *
 * Registration pattern (in the check's .cc under src/lint/checks/;
 * the table, its lookups and its refusals are common/registry.hh's):
 *
 *     namespace { const bool registered = checks().add(
 *         {"my-check", "what invariant it enforces",
 *          {"src/path/anchor.hh"}},
 *         &checkMyInvariant); }
 *     void anchorMyCheckRegistration() {}
 *
 * registry.cc's builtins hook calls every check's anchor, which keeps
 * the registration objects in a statically linked binary.
 *
 * CheckInfo::anchors lists the real files the check's invariant is
 * keyed on. The driver resolves them before running the check: a
 * missing anchor silently skips the check (fixture trees stay
 * small), unless LintOptions::requireAnchors is set — the mode CI
 * and the repo ctest use — in which case it is a configuration
 * error. Checks can therefore assume their anchors exist.
 */

#ifndef DCG_LINT_REGISTRY_HH
#define DCG_LINT_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

#include "common/registry.hh"

namespace dcg::lint {

class Context;
struct Diagnostic;

/** Everything the catalog knows about one registered check. */
struct CheckInfo
{
    std::string name;
    std::string description;  ///< one line, for --list-checks/SARIF
    /** Root-relative files the invariant is keyed on (may be empty:
     *  path-scope-only checks like naked-new need no anchor). */
    std::vector<std::string> anchors;
};

/** Produces the check's diagnostics from the shared Context. */
using CheckFn =
    std::function<std::vector<Diagnostic>(const Context &)>;

/** The check registry; lookups run the builtins anchors first. */
Registry<CheckInfo, CheckFn> &checks();

} // namespace dcg::lint

#endif // DCG_LINT_REGISTRY_HH
