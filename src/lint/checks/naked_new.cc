/**
 * @file
 * naked-new: no raw new/delete expressions in src/ or tools/ — use
 * make_unique/make_shared or a container. `= delete` member
 * declarations pass.
 */

#include <cctype>

#include "lint/context.hh"
#include "lint/lexer.hh"
#include "lint/registry.hh"

namespace dcg::lint {

namespace {

std::vector<Diagnostic>
checkNakedNew(const Context &ctx)
{
    std::vector<Diagnostic> out;
    for (const char *sub : {"src", "tools"}) {
        for (const FileRecord *rec : ctx.filesUnder(sub)) {
            const std::string &code = rec->bare;
            for (const char *word : {"new", "delete"}) {
                const std::string w = word;
                std::size_t pos = 0;
                while ((pos = code.find(w, pos)) != std::string::npos) {
                    const std::size_t start = pos;
                    pos += w.size();
                    if (start > 0 && isIdentChar(code[start - 1]))
                        continue;
                    if (start + w.size() < code.size() &&
                        isIdentChar(code[start + w.size()]))
                        continue;
                    // "= delete" / "= delete;" declares a deleted
                    // member.
                    std::size_t b = start;
                    while (b > 0 && std::isspace(
                               static_cast<unsigned char>(code[b - 1])))
                        --b;
                    if (b > 0 && code[b - 1] == '=')
                        continue;
                    out.push_back(
                        {rec->rel, lineOfOffset(code, start),
                         "naked-new",
                         std::string("naked '") + word +
                             "' expression; use make_unique/"
                             "make_shared or a container"});
                }
            }
        }
    }
    return out;
}

const bool registered = checks().add(
    {"naked-new",
     "no raw new/delete expressions; use make_unique/make_shared or "
     "a container",
     {}},
    &checkNakedNew);

} // namespace

void anchorNakedNewCheckRegistration() {}

} // namespace dcg::lint
