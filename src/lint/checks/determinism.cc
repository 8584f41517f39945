/**
 * @file
 * determinism: the simulated core must be a pure function of its
 * configuration and trace. Replay (serve-layer cache keys, replicated
 * re-execution, the paper's IPC/power numbers) is byte-compare
 * equality of reports, so wall-clock reads, ambient randomness and
 * unordered-container iteration order are banned from
 * src/{sim,pipeline,gating,power,exp}.
 *
 * Deliberate exceptions (e.g. a wall-clock timestamp in a report
 * banner that is excluded from the compare) carry a
 * `dcglint:allow(determinism)` marker on or above the line.
 */

#include <cctype>
#include <map>
#include <set>

#include "lint/context.hh"
#include "lint/lexer.hh"
#include "lint/registry.hh"

namespace dcg::lint {

namespace {

constexpr const char *kAnchor = "src/sim/simulator.hh";

const char *const kScopes[] = {"src/sim", "src/pipeline", "src/gating",
                               "src/power", "src/exp"};

/** Banned when called: name(...) — reason per function. */
const std::map<std::string, std::string> &
bannedCalls()
{
    static const std::map<std::string, std::string> calls = {
        {"rand", "ambient randomness; thread a seeded engine through "
                 "the config instead"},
        {"srand", "ambient randomness; thread a seeded engine through "
                  "the config instead"},
        {"rand_r", "ambient randomness; thread a seeded engine "
                   "through the config instead"},
        {"drand48", "ambient randomness; thread a seeded engine "
                    "through the config instead"},
        {"time", "wall-clock read; replay would diverge run to run"},
        {"gettimeofday",
         "wall-clock read; replay would diverge run to run"},
        {"clock_gettime",
         "wall-clock read; replay would diverge run to run"},
        {"localtime", "wall-clock read; replay would diverge run to "
                      "run"},
        {"gmtime", "wall-clock read; replay would diverge run to run"},
    };
    return calls;
}

/** Banned on sight: types whose mere use is the hazard. */
const std::map<std::string, std::string> &
bannedTokens()
{
    static const std::map<std::string, std::string> tokens = {
        {"random_device",
         "nondeterministic seed source; take the seed from the config"},
        {"system_clock",
         "wall-clock read; replay would diverge run to run"},
        {"unordered_map",
         "iteration order is unspecified; use std::map or a sorted "
         "vector in the deterministic core"},
        {"unordered_set",
         "iteration order is unspecified; use std::set or a sorted "
         "vector in the deterministic core"},
        {"unordered_multimap",
         "iteration order is unspecified; use std::multimap in the "
         "deterministic core"},
        {"unordered_multiset",
         "iteration order is unspecified; use std::multiset in the "
         "deterministic core"},
    };
    return tokens;
}

void
scanFile(const FileRecord &rec, std::vector<Diagnostic> &out)
{
    const std::string &text = rec.bare;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (!isIdentChar(text[i]) ||
            (i > 0 && isIdentChar(text[i - 1])))
            continue;
        std::size_t end = i;
        while (end < text.size() && isIdentChar(text[end]))
            ++end;
        const std::string word = text.substr(i, end - i);

        const auto tok = bannedTokens().find(word);
        if (tok != bannedTokens().end()) {
            out.push_back({rec.rel, lineOfOffset(text, i),
                           "determinism",
                           word + ": " + tok->second});
            i = end;
            continue;
        }

        const auto call = bannedCalls().find(word);
        if (call == bannedCalls().end()) {
            i = end;
            continue;
        }

        // Only the libc function: member calls (`sim.time(...)`) and
        // non-std qualified names are something else; a directly
        // preceding identifier means a declarator, not a call.
        if (i > 0 && (text[i - 1] == '.' ||
                      (text[i - 1] == '>' && i >= 2 &&
                       text[i - 2] == '-'))) {
            i = end;
            continue;
        }
        if (i >= 2 && text[i - 1] == ':' && text[i - 2] == ':') {
            std::size_t q = i - 2;
            while (q > 0 && isIdentChar(text[q - 1]))
                --q;
            if (text.substr(q, i - q) != "std::") {
                i = end;
                continue;
            }
        } else {
            std::size_t b = i;
            while (b > 0 && std::isspace(
                       static_cast<unsigned char>(text[b - 1])))
                --b;
            if (b > 0 && isIdentChar(text[b - 1])) {
                i = end;
                continue;
            }
        }
        std::size_t j = end;
        while (j < text.size() &&
               std::isspace(static_cast<unsigned char>(text[j])))
            ++j;
        if (j < text.size() && text[j] == '(') {
            out.push_back({rec.rel, lineOfOffset(text, i),
                           "determinism",
                           word + "(): " + call->second});
        }
        i = end;
    }
}

std::vector<Diagnostic>
checkDeterminism(const Context &ctx)
{
    std::vector<Diagnostic> out;
    for (const char *scope : kScopes)
        for (const FileRecord *rec : ctx.filesUnder(scope))
            scanFile(*rec, out);
    return out;
}

const bool registered = checks().add(
    {"determinism",
     "no wall-clock, ambient-randomness or unordered-iteration "
     "hazards in the replayable core (src/{sim,pipeline,gating,"
     "power,exp})",
     {kAnchor}},
    &checkDeterminism);

} // namespace

void anchorDeterminismCheckRegistration() {}

} // namespace dcg::lint
