/**
 * @file
 * scheme-registry: every schemes().add({"name", ... site in
 * src/gating/ must have its backticked name in the gating-scheme
 * table in EXPERIMENTS.md — schemes must be documented to exist.
 */

#include <cctype>
#include <cstring>

#include "lint/context.hh"
#include "lint/lexer.hh"
#include "lint/registry.hh"

namespace dcg::lint {

namespace {

constexpr const char *kAnchor = "EXPERIMENTS.md";

struct SchemeRegistration
{
    std::string name;
    std::string file;
    int line;
};

/**
 * Find schemes().add({"name", ... registration sites in @p text
 * (comments stripped, strings kept). The scheme name is the first
 * string literal of the braced SchemeInfo initializer; declarations
 * and calls without a literal-named initializer are skipped.
 */
void
collectSchemeRegistrations(const std::string &text,
                           const std::string &file,
                           std::vector<SchemeRegistration> &out)
{
    const std::string word = "schemes";
    std::size_t pos = 0;
    while ((pos = text.find(word, pos)) != std::string::npos) {
        const std::size_t start = pos;
        pos += word.size();
        if (start > 0 && isIdentChar(text[start - 1]))
            continue;
        // The tokens after the accessor name, whitespace allowed
        // between them; the last one opens the name literal.
        std::size_t j = pos;
        bool matched = true;
        for (const char *tok : {"(", ")", ".", "add", "(", "{", "\""}) {
            while (j < text.size() &&
                   std::isspace(static_cast<unsigned char>(text[j])))
                ++j;
            if (text.compare(j, std::strlen(tok), tok) != 0) {
                matched = false;
                break;
            }
            j += std::strlen(tok);
        }
        if (!matched)
            continue;
        const std::size_t name_end = text.find('"', j);
        if (name_end == std::string::npos)
            continue;
        out.push_back({text.substr(j, name_end - j), file,
                       lineOfOffset(text, start)});
    }
}

std::vector<Diagnostic>
checkSchemeRegistry(const Context &ctx)
{
    std::vector<Diagnostic> out;
    const std::string &docs = ctx.find(kAnchor)->raw;

    std::vector<SchemeRegistration> regs;
    for (const FileRecord *rec : ctx.filesUnder("src/gating"))
        collectSchemeRegistrations(rec->code, rec->rel, regs);

    for (const SchemeRegistration &reg : regs) {
        // The docs table writes scheme names in backticks; requiring
        // the backticked form keeps short names like "base" from
        // matching prose accidentally.
        if (docs.find('`' + reg.name + '`') == std::string::npos) {
            out.push_back({reg.file, reg.line, "scheme-registry",
                           "gating scheme '" + reg.name +
                               "' is registered but missing from the "
                               "gating-scheme table in EXPERIMENTS.md"});
        }
    }
    return out;
}

const bool registered = checks().add(
    {"scheme-registry",
     "every registered gating scheme is documented in the "
     "EXPERIMENTS.md scheme table",
     {kAnchor}},
    &checkSchemeRegistry);

} // namespace

void anchorSchemeRegistryCheckRegistration() {}

} // namespace dcg::lint
