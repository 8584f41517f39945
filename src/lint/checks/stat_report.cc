/**
 * @file
 * stat-report: every literal-named stat registration must appear in
 * the report catalog (statRegistryCatalog in src/sim/report.cc), so a
 * counter cannot be recorded but silently dropped from the report.
 */

#include <cctype>

#include "lint/context.hh"
#include "lint/lexer.hh"
#include "lint/registry.hh"

namespace dcg::lint {

namespace {

constexpr const char *kAnchor = "src/sim/report.cc";

struct StatRegistration
{
    std::string name;
    std::string file;  ///< relative to root
    int line;
};

/**
 * Find stats.counter("name", ...) style registrations in @p text
 * (comments stripped, strings kept). Dynamic names (no literal) are
 * skipped — they cannot be checked lexically.
 */
void
collectStatRegistrations(const std::string &text, const std::string &file,
                         std::vector<StatRegistration> &out)
{
    static const char *kMethods[] = {"counter", "scalar", "average",
                                     "distribution", "formula"};
    for (const char *method : kMethods) {
        const std::string word = method;
        std::size_t pos = 0;
        while ((pos = text.find(word, pos)) != std::string::npos) {
            const std::size_t start = pos;
            pos += word.size();
            if (start == 0 || text[start - 1] != '.')
                continue;
            std::size_t j = start + word.size();
            while (j < text.size() &&
                   std::isspace(static_cast<unsigned char>(text[j])))
                ++j;
            if (j >= text.size() || text[j] != '(')
                continue;
            ++j;
            while (j < text.size() &&
                   std::isspace(static_cast<unsigned char>(text[j])))
                ++j;
            if (j >= text.size() || text[j] != '"')
                continue;  // dynamic name
            const std::size_t name_start = j + 1;
            const std::size_t name_end = text.find('"', name_start);
            if (name_end == std::string::npos)
                continue;
            out.push_back({text.substr(name_start, name_end - name_start),
                           file, lineOfOffset(text, start)});
        }
    }
}

std::vector<Diagnostic>
checkStatsReported(const Context &ctx)
{
    std::vector<Diagnostic> out;
    const std::string &catalog = ctx.find(kAnchor)->code;

    std::vector<StatRegistration> regs;
    for (const FileRecord *rec : ctx.filesUnder("src")) {
        // The lint subsystem itself registers nothing; skip it so this
        // file's own pattern strings cannot confuse the scan.
        if (rec->rel.rfind("src/lint/", 0) == 0)
            continue;
        collectStatRegistrations(rec->code, rec->rel, regs);
    }

    for (const StatRegistration &reg : regs) {
        if (catalog.find('"' + reg.name + '"') == std::string::npos) {
            out.push_back({reg.file, reg.line, "stat-report",
                           "stat '" + reg.name +
                               "' is registered but missing from the "
                               "catalog in src/sim/report.cc "
                               "(statRegistryCatalog)"});
        }
    }
    return out;
}

const bool registered = checks().add(
    {"stat-report",
     "every literal-named stat registration appears in the report "
     "catalog in src/sim/report.cc",
     {kAnchor}},
    &checkStatsReported);

} // namespace

void anchorStatReportCheckRegistration() {}

} // namespace dcg::lint
