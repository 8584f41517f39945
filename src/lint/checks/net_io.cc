/**
 * @file
 * net-io: raw socket calls outside src/serve/netio.hh must go through
 * the net::*Retry wrappers — EINTR/partial-write handling lives in
 * exactly one place.
 */

#include <cctype>
#include <set>

#include "lint/context.hh"
#include "lint/lexer.hh"
#include "lint/registry.hh"

namespace dcg::lint {

namespace {

constexpr const char *kAnchor = "src/serve/netio.hh";

/**
 * Raw socket calls that must go through the net::*Retry wrappers in
 * src/serve/netio.hh (the wrapper name is the call plus "Retry").
 */
const std::set<std::string> &
netIoNames()
{
    static const std::set<std::string> names = {
        "accept", "connect", "poll", "read",
        "recv",   "send",    "write",
    };
    return names;
}

/**
 * Scan stripped text for raw calls to the wrapped socket functions.
 * Unlike syscall-return this flags *every* raw call, consumed or not.
 * Member calls (`conn.read(...)`), non-std qualified names and
 * declarations (`ssize_t read(...)`, preceded by a type name) are not
 * the libc functions and pass.
 */
void
scanNetIo(const std::string &text, const std::string &file,
          std::vector<Diagnostic> &out)
{
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (!isIdentChar(text[i]) ||
            (i > 0 && isIdentChar(text[i - 1])))
            continue;
        std::size_t end = i;
        while (end < text.size() && isIdentChar(text[end]))
            ++end;
        const std::string word = text.substr(i, end - i);
        if (!netIoNames().count(word)) {
            i = end;
            continue;
        }

        // Qualified call? Accept std:: (same C function), skip every
        // other namespace — net::… wrappers have distinct names, but a
        // class-qualified Conn::read is not the syscall.
        std::string qualifier;
        if (i >= 2 && text[i - 1] == ':' && text[i - 2] == ':') {
            std::size_t q = i - 2;
            while (q > 0 && isIdentChar(text[q - 1]))
                --q;
            qualifier = text.substr(q, i - q);
        }
        if (!qualifier.empty() && qualifier != "std::") {
            i = end;
            continue;
        }
        if (i > 0 && (text[i - 1] == '.' ||
                      (text[i - 1] == '>' && i >= 2 &&
                       text[i - 2] == '-'))) {
            i = end;  // member call, not the libc function
            continue;
        }

        std::size_t j = end;
        while (j < text.size() &&
               std::isspace(static_cast<unsigned char>(text[j])))
            ++j;
        if (j >= text.size() || text[j] != '(') {
            i = end;
            continue;
        }

        // An unqualified name directly preceded by another identifier
        // is a declarator ("ssize_t read(int, ...)"), except after a
        // statement keyword, where it is a genuine call.
        if (qualifier.empty()) {
            std::size_t b = i;
            while (b > 0 && std::isspace(
                       static_cast<unsigned char>(text[b - 1])))
                --b;
            if (b > 0 && isIdentChar(text[b - 1])) {
                std::size_t w0 = b;
                while (w0 > 0 && isIdentChar(text[w0 - 1]))
                    --w0;
                const std::string prev = text.substr(w0, b - w0);
                static const std::set<std::string> kStmtKeywords = {
                    "return", "else", "do", "case"};
                if (!kStmtKeywords.count(prev)) {
                    i = end;
                    continue;
                }
            }
        }

        out.push_back({file, lineOfOffset(text, i), "net-io",
                       "raw " + word + "() call; route it through "
                           "net::" + word +
                           "Retry() from serve/netio.hh"});
        i = end;
    }
}

std::vector<Diagnostic>
checkNetIo(const Context &ctx)
{
    std::vector<Diagnostic> out;
    for (const char *sub : {"src/serve", "tools"}) {
        for (const FileRecord *rec : ctx.filesUnder(sub)) {
            if (rec->rel == kAnchor)
                continue;  // the wrappers themselves call raw functions
            scanNetIo(rec->bare, rec->rel, out);
        }
    }
    return out;
}

const bool registered = checks().add(
    {"net-io",
     "raw socket calls are routed through the net::*Retry wrappers "
     "in src/serve/netio.hh",
     {kAnchor}},
    &checkNetIo);

} // namespace

void anchorNetIoCheckRegistration() {}

} // namespace dcg::lint
