/**
 * dcglint behaviour on the fixture trees under tests/lint/fixtures/:
 * exact diagnostics (check, file, line, message substrings) and exit
 * codes, including the clean tree and the anchor-enforcement mode the
 * repo-wide ctest uses; plus the registry catalog's own invariants
 * and the machine-readable output/baseline layers.
 */

#include "lint/lint.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/registry.hh"

#ifndef DCG_LINT_FIXTURES
#error "DCG_LINT_FIXTURES must point at tests/lint/fixtures"
#endif

namespace dcg::lint {
namespace {

std::string
fixture(const std::string &name)
{
    return std::string(DCG_LINT_FIXTURES) + "/" + name;
}

bool
hasDiag(const std::vector<Diagnostic> &diags, const std::string &check,
        const std::string &needle)
{
    return std::any_of(diags.begin(), diags.end(),
                       [&](const Diagnostic &d) {
                           return d.check == check &&
                                  d.message.find(needle) !=
                                      std::string::npos;
                       });
}

TEST(Dcglint, CleanTreePasses)
{
    LintOptions opts;
    opts.root = fixture("clean");
    opts.requireAnchors = true;
    std::ostringstream out;
    EXPECT_EQ(runDcglint(opts, out), 0);
    EXPECT_NE(out.str().find("dcglint: clean"), std::string::npos);
}

TEST(Dcglint, OrphanedActivityCounterIsCaught)
{
    LintOptions opts;
    opts.root = fixture("orphan_counter");
    const std::vector<Diagnostic> diags =
        runCheck("activity-counter", opts);

    // Exactly two findings: orphanCtr is written but never consumed,
    // ghostCtr is consumed but never written. usedCtr is healthy.
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_TRUE(hasDiag(diags, "activity-counter",
                        "'orphanCtr' is never consumed"));
    EXPECT_TRUE(hasDiag(diags, "activity-counter",
                        "'ghostCtr' is never written"));
    for (const Diagnostic &d : diags) {
        EXPECT_EQ(d.file, "src/pipeline/activity.hh");
        EXPECT_GT(d.line, 0);
    }

    std::ostringstream out;
    LintOptions all = opts;
    EXPECT_EQ(runDcglint(all, out), 1);
    EXPECT_NE(out.str().find("2 finding(s)"), std::string::npos);
}

TEST(Dcglint, UncheckedSyscallIsCaught)
{
    LintOptions opts;
    opts.root = fixture("unchecked_syscall");
    const std::vector<Diagnostic> diags =
        runCheck("syscall-return", opts);

    // Only the discarded fcntl() is flagged; the checked bind(), the
    // assigned listen(), the (void) shutdown() and the allowlisted
    // close() are all fine.
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].check, "syscall-return");
    EXPECT_EQ(diags[0].file, "src/serve/conn.cc");
    EXPECT_NE(diags[0].message.find("fcntl"), std::string::npos);

    std::ostringstream out;
    EXPECT_EQ(runDcglint(opts, out), 1);
}

TEST(Dcglint, RawNetIoCallsAreCaught)
{
    LintOptions opts;
    opts.root = fixture("raw_netio");
    const std::vector<Diagnostic> diags = runCheck("net-io", opts);

    // The raw poll/read/send calls are flagged; the net::writeRetry
    // wrapper, the member sock.read() and the declarations are not.
    ASSERT_EQ(diags.size(), 3u);
    EXPECT_TRUE(hasDiag(diags, "net-io", "raw poll()"));
    EXPECT_TRUE(hasDiag(diags, "net-io", "raw read()"));
    EXPECT_TRUE(hasDiag(diags, "net-io", "raw send()"));
    for (const Diagnostic &d : diags) {
        EXPECT_EQ(d.file, "src/serve/conn.cc");
        EXPECT_GT(d.line, 0);
    }

    std::ostringstream out;
    EXPECT_EQ(runDcglint(opts, out), 1);
}

TEST(Dcglint, NakedNewAndDeleteAreCaught)
{
    LintOptions opts;
    opts.root = fixture("naked_new");
    const std::vector<Diagnostic> diags = runCheck("naked-new", opts);

    // new int(7) and delete p — but not "= delete" nor the words in
    // comments or string literals.
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_TRUE(hasDiag(diags, "naked-new", "naked 'new'"));
    EXPECT_TRUE(hasDiag(diags, "naked-new", "naked 'delete'"));
}

TEST(Dcglint, UnlistedStatIsCaught)
{
    LintOptions opts;
    opts.root = fixture("unlisted_stat");
    const std::vector<Diagnostic> diags =
        runCheck("stat-report", opts);

    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].check, "stat-report");
    EXPECT_EQ(diags[0].file, "src/pipeline/core.cc");
    EXPECT_NE(diags[0].message.find("core.unlisted"),
              std::string::npos);
}

TEST(Dcglint, UnlistedSchemeIsCaught)
{
    LintOptions opts;
    opts.root = fixture("unlisted_scheme");
    const std::vector<Diagnostic> diags =
        runCheck("scheme-registry", opts);

    // "rogue" is registered but absent from EXPERIMENTS.md; the
    // documented "demo" registration in the same tree passes.
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].check, "scheme-registry");
    EXPECT_EQ(diags[0].file, "src/gating/rogue.cc");
    EXPECT_GT(diags[0].line, 0);
    EXPECT_NE(diags[0].message.find("'rogue'"), std::string::npos);
    EXPECT_NE(diags[0].message.find("EXPERIMENTS.md"),
              std::string::npos);

    std::ostringstream out;
    EXPECT_EQ(runDcglint(opts, out), 1);
}

TEST(Dcglint, ThreadCleanFixturePasses)
{
    LintOptions opts;
    opts.root = fixture("thread_clean");
    EXPECT_TRUE(runCheck("thread-ownership", opts).empty());
}

TEST(Dcglint, AnyThreadCallingOwnerThreadIsCaught)
{
    LintOptions opts;
    opts.root = fixture("thread_any_to_owner");
    const std::vector<Diagnostic> diags =
        runCheck("thread-ownership", opts);

    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].check, "thread-ownership");
    EXPECT_EQ(diags[0].file, "src/serve/widget.cc");
    EXPECT_GT(diags[0].line, 0);
    EXPECT_NE(diags[0].message.find("'Widget::post'"),
              std::string::npos);
    EXPECT_NE(diags[0].message.find("owner-thread-only method 'step'"),
              std::string::npos);
}

TEST(Dcglint, UnlockedGuardedMemberIsCaught)
{
    LintOptions opts;
    opts.root = fixture("thread_unlocked_guarded");
    const std::vector<Diagnostic> diags =
        runCheck("thread-ownership", opts);

    // post() touches inbox without naming mu; step() (locks) and
    // flushLocked() (DCG_REQUIRES) in the same tree pass.
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].file, "src/serve/widget.cc");
    EXPECT_NE(diags[0].message.find("'inbox'"), std::string::npos);
    EXPECT_NE(diags[0].message.find("DCG_GUARDED_BY(mu)"),
              std::string::npos);
}

TEST(Dcglint, UnannotatedPublicDeclIsCaught)
{
    LintOptions opts;
    opts.root = fixture("thread_unannotated_decl");
    const std::vector<Diagnostic> diags =
        runCheck("thread-ownership", opts);

    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].file, "src/serve/widget.hh");
    EXPECT_NE(diags[0].message.find("'Widget::poke'"),
              std::string::npos);
    EXPECT_NE(diags[0].message.find("lacks a thread annotation"),
              std::string::npos);
}

TEST(Dcglint, DeterminismHazardsAreCaughtAndAllowMarkerHonored)
{
    LintOptions opts;
    opts.root = fixture("nondeterminism");
    const std::vector<Diagnostic> diags =
        runCheck("determinism", opts);

    // time(), rand(), unordered_map, random_device — exactly four;
    // the member c.time(), the declarator parameter, and the
    // dcglint:allow(determinism)-marked srand() are not flagged.
    ASSERT_EQ(diags.size(), 4u);
    EXPECT_TRUE(hasDiag(diags, "determinism", "time()"));
    EXPECT_TRUE(hasDiag(diags, "determinism", "rand()"));
    EXPECT_TRUE(hasDiag(diags, "determinism", "unordered_map"));
    EXPECT_TRUE(hasDiag(diags, "determinism", "random_device"));
    EXPECT_FALSE(hasDiag(diags, "determinism", "srand"));
    for (const Diagnostic &d : diags)
        EXPECT_EQ(d.file, "src/sim/tick.cc");
}

TEST(Dcglint, TickPathRegistryCallsAreCaught)
{
    LintOptions opts;
    opts.root = fixture("tick_path_stats");
    const std::vector<Diagnostic> diags =
        runCheck("tick-path-stats", opts);

    // tick()'s counter() and commit()'s lookup() — but not the
    // constructor registration, the free counter() call, the
    // foldStats() report access, or the flat-accumulating power tick.
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_TRUE(hasDiag(diags, "tick-path-stats",
                        "'Core::tick' calls stat registry accessor "
                        "'counter()'"));
    EXPECT_TRUE(hasDiag(diags, "tick-path-stats",
                        "'Core::commit' calls stat registry accessor "
                        "'lookup()'"));
    for (const Diagnostic &d : diags) {
        EXPECT_EQ(d.file, "src/pipeline/core.cc");
        EXPECT_GT(d.line, 0);
    }

    std::ostringstream out;
    EXPECT_EQ(runDcglint(opts, out), 1);
}

TEST(Dcglint, CheckSelectionFilters)
{
    // The orphan_counter tree is dirty for activity-counter but clean
    // for every other check.
    LintOptions opts;
    opts.root = fixture("orphan_counter");
    opts.checks = {"syscall-return", "naked-new"};
    std::ostringstream out;
    EXPECT_EQ(runDcglint(opts, out), 0);
}

TEST(Dcglint, UnknownCheckIsConfigError)
{
    LintOptions opts;
    opts.root = fixture("clean");
    opts.checks = {"no-such-check"};
    std::ostringstream out;
    EXPECT_EQ(runDcglint(opts, out), 2);
    // The error names the registered catalog, like dcgsim --scheme.
    EXPECT_NE(out.str().find("thread-ownership"), std::string::npos);
}

TEST(Dcglint, BadRootIsConfigError)
{
    LintOptions opts;
    opts.root = fixture("does_not_exist");
    std::ostringstream out;
    EXPECT_EQ(runDcglint(opts, out), 2);
}

TEST(Dcglint, MissingAnchorsAreConfigErrorsOnlyWhenRequired)
{
    // unchecked_syscall has no activity.hh / report.cc anchors: the
    // anchored checks silently skip by default (fixture mode)...
    LintOptions opts;
    opts.root = fixture("unchecked_syscall");
    EXPECT_TRUE(runCheck("activity-counter", opts).empty());
    EXPECT_TRUE(runCheck("stat-report", opts).empty());

    // ...but the repo-wide mode treats a missing anchor as exit 2, so
    // renaming activity.hh cannot silently disable the invariant.
    opts.requireAnchors = true;
    opts.checks = {"activity-counter"};
    std::ostringstream out;
    EXPECT_EQ(runDcglint(opts, out), 2);
    EXPECT_NE(out.str().find("anchor"), std::string::npos);
}

TEST(Dcglint, DiagnosticFormatting)
{
    Diagnostic d{"src/a.cc", 12, "naked-new", "msg"};
    EXPECT_EQ(formatDiagnostic(d), "src/a.cc:12: [naked-new] msg");
    d.line = 0;
    EXPECT_EQ(formatDiagnostic(d), "src/a.cc: [naked-new] msg");
    d.line = 12;
    EXPECT_EQ(baselineKey(d), "src/a.cc: [naked-new] msg");
}

TEST(Dcglint, JsonOutputCarriesEveryFinding)
{
    LintOptions opts;
    opts.root = fixture("nondeterminism");
    opts.checks = {"determinism"};
    opts.format = OutputFormat::Json;
    std::ostringstream out;
    EXPECT_EQ(runDcglint(opts, out), 1);
    const std::string doc = out.str();
    EXPECT_NE(doc.find("\"count\": 4"), std::string::npos);
    EXPECT_NE(doc.find("\"check\": \"determinism\""),
              std::string::npos);
    EXPECT_NE(doc.find("src/sim/tick.cc"), std::string::npos);
}

TEST(Dcglint, SarifOutputHasRuleTableAndResults)
{
    LintOptions opts;
    opts.root = fixture("thread_any_to_owner");
    opts.checks = {"thread-ownership"};
    opts.format = OutputFormat::Sarif;
    std::ostringstream out;
    EXPECT_EQ(runDcglint(opts, out), 1);
    const std::string doc = out.str();
    EXPECT_NE(doc.find("\"version\": \"2.1.0\""), std::string::npos);
    // Every registered check appears in the rule table.
    for (const CheckInfo &info : checks().catalog())
        EXPECT_NE(doc.find("\"id\": \"" + info.name + "\""),
                  std::string::npos)
            << info.name;
    EXPECT_NE(doc.find("\"ruleId\": \"thread-ownership\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"startLine\": "), std::string::npos);
}

TEST(Dcglint, BaselineSuppressesKnownFindings)
{
    LintOptions opts;
    opts.root = fixture("thread_any_to_owner");
    opts.checks = {"thread-ownership"};
    const std::vector<Diagnostic> diags =
        runCheck("thread-ownership", opts);
    ASSERT_EQ(diags.size(), 1u);

    const std::string path =
        (std::filesystem::temp_directory_path() /
         "dcglint_baseline_test.txt")
            .string();
    {
        std::ofstream os(path);
        os << "# known findings\n" << baselineKey(diags[0]) << "\n";
    }
    opts.baselineFile = path;
    std::ostringstream out;
    EXPECT_EQ(runDcglint(opts, out), 0);
    EXPECT_NE(out.str().find("1 baselined"), std::string::npos);
    std::remove(path.c_str());

    // An unreadable baseline is a configuration error, not a pass.
    opts.baselineFile = fixture("no_such_baseline.txt");
    std::ostringstream out2;
    EXPECT_EQ(runDcglint(opts, out2), 2);
}

TEST(Dcglint, OnlyFilesFiltersTheReportNotTheAnalysis)
{
    LintOptions opts;
    opts.root = fixture("nondeterminism");
    opts.checks = {"determinism"};
    opts.onlyFiles = {"src/other.cc"};
    std::ostringstream out;
    EXPECT_EQ(runDcglint(opts, out), 0);

    opts.onlyFiles = {"src/sim/tick.cc"};
    std::ostringstream out2;
    EXPECT_EQ(runDcglint(opts, out2), 1);
}

TEST(DcglintRegistry, CatalogIsCompleteAndAnchorsResolve)
{
    const std::vector<CheckInfo> catalog = checks().catalog();
    EXPECT_GE(catalog.size(), 9u);

    for (const CheckInfo &info : catalog) {
        EXPECT_FALSE(info.name.empty());
        EXPECT_FALSE(info.description.empty()) << info.name;
        for (const std::string &anchor : info.anchors) {
            const std::filesystem::path p =
                std::filesystem::path(DCG_LINT_REPO_ROOT) / anchor;
            EXPECT_TRUE(std::filesystem::is_regular_file(p))
                << info.name << " anchor: " << anchor;
        }
        const auto *check = checks().find(info.name);
        ASSERT_NE(check, nullptr);
        EXPECT_EQ(check->info.description, info.description);
        EXPECT_TRUE(static_cast<bool>(check->fn));
    }

    // The new deep checks are part of the registered set.
    EXPECT_NE(checks().find("thread-ownership"), nullptr);
    EXPECT_NE(checks().find("determinism"), nullptr);
    EXPECT_EQ(checks().find("no-such-check"), nullptr);
    EXPECT_NE(checks().joined().find("|thread-ownership"),
              std::string::npos);
}

TEST(Dcglint, RepoTreeIsClean)
{
    // The real repository must satisfy its own invariants. The ctest
    // driver also runs the dcglint binary against the source root;
    // this in-process variant pins the library behaviour.
    LintOptions opts;
    opts.root = DCG_LINT_REPO_ROOT;
    opts.requireAnchors = true;
    std::ostringstream out;
    EXPECT_EQ(runDcglint(opts, out), 0) << out.str();
}

} // namespace
} // namespace dcg::lint
