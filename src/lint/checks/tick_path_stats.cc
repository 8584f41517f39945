/**
 * @file
 * tick-path-stats: the per-cycle hot path must never touch the named
 * stat registry.
 *
 * The simulator's throughput rests on the flat-counter design: the
 * tick loop accumulates into Core's contiguous uint64 block (and the
 * power model's plain doubles), and only foldStats() writes the named
 * Statistic objects at report time. A registry accessor call —
 * counter(), lookup() and friends — inside a per-cycle function
 * reintroduces a map lookup (or at best a pointer chase through a
 * Statistic) per simulated cycle, exactly the overhead the flat block
 * removed. Registrations belong in constructors; reads belong in the
 * report path.
 *
 * Lexical, like every dcglint check: a function whose name is in the
 * per-cycle set (Core::tick, the gating controllers' gates(), the
 * power model's chargeIdle(), ...) may not make a member call to a
 * StatRegistry accessor anywhere in its body. Constructors and the
 * report/fold path are outside the set and remain free to use the
 * registry.
 */

#include <cctype>
#include <map>
#include <set>
#include <string>

#include "lint/context.hh"
#include "lint/lexer.hh"
#include "lint/registry.hh"

namespace dcg::lint {

namespace {

constexpr const char *kAnchor = "src/pipeline/core.cc";

/** Directories whose code runs once per simulated cycle. */
const char *const kScopes[] = {"src/pipeline", "src/gating", "src/power",
                               "src/sim"};

/**
 * Function names that execute per cycle (or per instruction). Matched
 * against FunctionDef::name, so both out-of-line `Core::tick` and
 * inline class-body `tick` definitions are covered; constructors carry
 * the class name and never match.
 */
const std::set<std::string> &
hotFunctions()
{
    static const std::set<std::string> names = {
        "tick",         "gates",       "beginCycle", "applyMode",
        "desiredMode",  "skipIdle",    "chargeIdle", "commit",
        "drainStores",  "fetch",       "fetchWrongPath",
        "idleSkipAvailable", "issue",  "issueOne",   "rename",
        "scheduleReady",
    };
    return names;
}

/** StatRegistry member accessors (registration and lookup alike). */
const std::set<std::string> &
registryAccessors()
{
    static const std::set<std::string> names = {
        "counter", "scalar", "average", "distribution", "formula",
        "lookup",
    };
    return names;
}

/**
 * Scan @p body (a slice of FileRecord::bare at @p bodyBegin) for
 * member calls `.accessor(` / `->accessor(` to any registry accessor
 * and report each at its real line.
 */
void
scanHotBody(const FileRecord &rec, const FunctionDef &fn,
            std::vector<Diagnostic> &out)
{
    const std::string &text = rec.bare;
    for (std::size_t i = fn.bodyBegin; i < fn.bodyEnd; ++i) {
        if (!isIdentChar(text[i]) || (i > 0 && isIdentChar(text[i - 1])))
            continue;
        std::size_t end = i;
        while (end < fn.bodyEnd && isIdentChar(text[end]))
            ++end;
        const std::string word = text.substr(i, end - i);
        if (!registryAccessors().count(word)) {
            i = end;
            continue;
        }
        // Member call only: `x.counter(` or `x->counter(`. A free
        // function or declaration of the same name is not a registry
        // access.
        const bool member =
            (i > 0 && text[i - 1] == '.') ||
            (i >= 2 && text[i - 2] == '-' && text[i - 1] == '>');
        std::size_t j = end;
        while (j < fn.bodyEnd &&
               std::isspace(static_cast<unsigned char>(text[j])))
            ++j;
        if (member && j < fn.bodyEnd && text[j] == '(') {
            const std::string where = fn.qualifier.empty()
                ? fn.name : fn.qualifier + "::" + fn.name;
            out.push_back(
                {rec.rel, lineOfOffset(text, i), "tick-path-stats",
                 "per-cycle function '" + where + "' calls stat "
                 "registry accessor '" + word + "()'; accumulate in "
                 "the flat counter block and fold at report time "
                 "(Core::foldStats)"});
        }
        i = end;
    }
}

std::vector<Diagnostic>
checkTickPathStats(const Context &ctx)
{
    std::vector<Diagnostic> out;
    for (const char *scope : kScopes)
        for (const FileRecord *rec : ctx.filesUnder(scope))
            for (const FunctionDef &fn : rec->functions)
                if (hotFunctions().count(fn.name))
                    scanHotBody(*rec, fn, out);
    return out;
}

const bool registered = checks().add(
    {"tick-path-stats",
     "per-cycle functions in src/{pipeline,gating,power,sim} never "
     "call stat registry accessors; stats accumulate flat and fold at "
     "report time",
     {kAnchor}},
    &checkTickPathStats);

} // namespace

void anchorTickPathStatsCheckRegistration() {}

} // namespace dcg::lint
