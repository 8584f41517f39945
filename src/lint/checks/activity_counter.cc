/**
 * @file
 * activity-counter: every CycleActivity field must be produced by the
 * pipeline and consumed by the energy-accounting path.
 *
 * The DCG power claim is an integral over per-cycle activity counts;
 * a counter the pipeline never writes (or the power/gating layers
 * never read) is a silent hole in that integral.
 */

#include <cctype>
#include <map>
#include <set>

#include "lint/context.hh"
#include "lint/lexer.hh"
#include "lint/registry.hh"

namespace dcg::lint {

namespace {

constexpr const char *kAnchor = "src/pipeline/activity.hh";

/**
 * Parse the field names of `struct CycleActivity` from the stripped
 * text of activity.hh. Returns (name -> declaration line). Tracks
 * brace depth so member-function bodies are not mistaken for fields.
 */
std::map<std::string, int>
parseCycleActivityFields(const std::string &stripped)
{
    std::map<std::string, int> fields;
    const std::vector<std::string> lines = toLines(stripped);

    std::size_t i = 0;
    for (; i < lines.size(); ++i)
        if (lines[i].find("struct CycleActivity") != std::string::npos)
            break;
    if (i == lines.size())
        return fields;

    int depth = 0;
    bool in_body = false;
    for (; i < lines.size(); ++i) {
        const std::string &raw = lines[i];
        const int depth_at_start = depth;
        for (char c : raw) {
            if (c == '{')
                ++depth;
            else if (c == '}')
                --depth;
        }
        if (!in_body) {
            if (depth > 0)
                in_body = true;
            continue;
        }
        if (depth <= 0)
            break;  // closed the struct

        const std::string line = trim(raw);
        if (depth_at_start != 1 || line.empty() || line.back() != ';' ||
            line.find('(') != std::string::npos)
            continue;
        if (line.rfind("public", 0) == 0 || line.rfind("private", 0) == 0 ||
            line.rfind("using", 0) == 0 || line.rfind("static", 0) == 0 ||
            line.rfind("friend", 0) == 0)
            continue;

        // Cut the declarator at the initializer ('=' or '{'), then take
        // the trailing identifier: "std::array<u8, N> latchFlux{};"
        // and "std::uint8_t issued = 0;" both yield the field name.
        std::string decl = line.substr(0, line.size() - 1);
        const std::size_t cut = decl.find_first_of("={");
        if (cut != std::string::npos)
            decl = decl.substr(0, cut);
        decl = trim(decl);
        std::size_t end = decl.size();
        while (end > 0 && isIdentChar(decl[end - 1]))
            --end;
        const std::string name = decl.substr(end);
        if (!name.empty() && !std::isdigit(static_cast<unsigned char>(
                name.front())))
            fields.emplace(name, static_cast<int>(i + 1));
    }
    return fields;
}

std::vector<Diagnostic>
checkActivityCounters(const Context &ctx)
{
    std::vector<Diagnostic> out;
    const FileRecord *anchor = ctx.find(kAnchor);
    const std::map<std::string, int> fields =
        parseCycleActivityFields(anchor->bare);

    // Producer side: any whole-word mention in src/pipeline/ outside
    // the declaration lines themselves.
    std::set<std::string> produced;
    for (const FileRecord *rec : ctx.filesUnder("src/pipeline")) {
        const bool is_anchor = rec == anchor;
        const std::vector<std::string> lines =
            is_anchor ? toLines(rec->bare) : std::vector<std::string>();
        for (const auto &[name, decl_line] : fields) {
            if (produced.count(name))
                continue;
            if (!is_anchor) {
                if (containsWord(rec->bare, name))
                    produced.insert(name);
                continue;
            }
            for (std::size_t ln = 0; ln < lines.size(); ++ln) {
                if (static_cast<int>(ln + 1) == decl_line)
                    continue;
                if (containsWord(lines[ln], name)) {
                    produced.insert(name);
                    break;
                }
            }
        }
    }

    // Consumer side: the energy-accounting path — the power model
    // itself, or a gating controller feeding the GateState the power
    // model charges against.
    std::set<std::string> consumed;
    for (const char *sub : {"src/power", "src/gating"}) {
        for (const FileRecord *rec : ctx.filesUnder(sub))
            for (const auto &[name, decl_line] : fields)
                if (!consumed.count(name) &&
                    containsWord(rec->bare, name))
                    consumed.insert(name);
    }

    for (const auto &[name, decl_line] : fields) {
        if (!produced.count(name)) {
            out.push_back({kAnchor, decl_line, "activity-counter",
                           "activity counter '" + name +
                               "' is never written in src/pipeline/"});
        }
        if (!consumed.count(name)) {
            out.push_back({kAnchor, decl_line, "activity-counter",
                           "activity counter '" + name +
                               "' is never consumed by src/power/ or "
                               "src/gating/ (energy-accounting hole)"});
        }
    }
    return out;
}

const bool registered = checks().add(
    {"activity-counter",
     "every CycleActivity field is written by the pipeline and read "
     "by the power/gating layers",
     {kAnchor}},
    &checkActivityCounters);

} // namespace

void anchorActivityCounterCheckRegistration() {}

} // namespace dcg::lint
