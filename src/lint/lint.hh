/**
 * @file
 * dcglint: project-specific static checks for the invariants the
 * simulator's correctness argument rests on.
 *
 * The deterministic-clock-gating claim (19.9 % power saving at ~0 %
 * IPC loss) is only as good as the wiring between the activity
 * counters the pipeline records, the power model that converts them
 * into energy, the reporting layer that serializes them — and, now
 * that the replayable core serves traffic as a replicated cluster,
 * the concurrency and determinism conventions that keep replay
 * byte-identical. These checks make that wiring a build-time
 * invariant instead of a code-review convention.
 *
 * v2 architecture: checks live in a self-registering registry
 * (lint/registry.hh — one translation unit per check under
 * src/lint/checks/), share one preprocessed per-file analysis
 * Context (lint/context.hh: stripped text, raw lines, a lexical
 * function/call index, built once and file-parallel), and are all
 * lexical (see lexer.hh) — no libclang dependency, so dcglint builds
 * anywhere the simulator builds and stays usable on a tree that does
 * not compile. `dcglint --list-checks` enumerates the registered
 * catalog; the per-check invariants are documented in ANALYSIS.md.
 *
 * Suppression layers, strict by default:
 *  - a `dcglint:allow(check-name)` comment on (or immediately above)
 *    the offending line waives one finding at the source, visibly;
 *  - a baseline file (--baseline=FILE; one `file: [check] message`
 *    entry per line, '#' comments) waives known findings centrally,
 *    so a new check can land strict while its backlog is burned
 *    down. Line numbers are not part of the match, so baselines
 *    survive unrelated edits.
 */

#ifndef DCG_LINT_LINT_HH
#define DCG_LINT_LINT_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace dcg::lint {

struct Diagnostic
{
    std::string file;     ///< path relative to the lint root
    int line = 0;         ///< 1-based; 0 = whole-file/config finding
    std::string check;    ///< check name, e.g. "activity-counter"
    std::string message;
};

/** Machine-readable output selection for runDcglint(). */
enum class OutputFormat
{
    Text,   ///< "file:line: [check] message" lines + summary
    Json,   ///< {"findings": [...], "count": N}
    Sarif,  ///< SARIF 2.1.0 (one run, one rule per check)
};

struct LintOptions
{
    std::string root = ".";      ///< project root to lint
    bool requireAnchors = false; ///< missing anchor file = config error
    /** Empty = all checks; else names from checks().names(). */
    std::vector<std::string> checks;
    /** Empty = report everything; else only findings in these
     *  root-relative files (config errors always surface). The
     *  analysis itself stays tree-wide — cross-file invariants need
     *  the whole tree — only the report is filtered. */
    std::vector<std::string> onlyFiles;
    std::string baselineFile;    ///< empty = no baseline
    OutputFormat format = OutputFormat::Text;
};

/**
 * Run the selected checks over @p opts.root; diagnostics sorted by
 * (file, line, message). Unknown check names come back as "config"
 * diagnostics. dcglint:allow markers are already applied; the
 * baseline and onlyFiles filters are the driver's job (runDcglint).
 */
std::vector<Diagnostic> runChecks(const LintOptions &opts);

/** Convenience for tests: runChecks restricted to one check. */
std::vector<Diagnostic> runCheck(const std::string &name,
                                 const LintOptions &opts);

/** "file:line: [check] message" (line omitted when 0). */
std::string formatDiagnostic(const Diagnostic &d);

/** The line-number-free form baseline files match against. */
std::string baselineKey(const Diagnostic &d);

/** Serialize diagnostics as the --format=json document. */
std::string toJson(const std::vector<Diagnostic> &diags);

/** Serialize diagnostics as the --format=sarif document. */
std::string toSarif(const std::vector<Diagnostic> &diags);

/**
 * CLI driver shared by tools/dcglint.cc and the tests: runs checks,
 * applies the baseline and file filters, prints diagnostics to
 * @p out in opts.format. Returns the process exit code: 0 = clean,
 * 1 = findings, 2 = configuration error (bad root, unknown or empty
 * check name, unreadable baseline, or — with requireAnchors — a
 * missing anchor file).
 */
int runDcglint(const LintOptions &opts, std::ostream &out);

} // namespace dcg::lint

#endif // DCG_LINT_LINT_HH
