/**
 * @file
 * syscall-return: fallible POSIX calls in src/serve/ and tools/ must
 * not discard their result. A standalone-statement `connect(...)` is
 * a bug waiting for a flaky network.
 */

#include <cctype>
#include <set>

#include "lint/context.hh"
#include "lint/lexer.hh"
#include "lint/registry.hh"

namespace dcg::lint {

namespace {

/** Fallible POSIX calls whose results must be consumed. */
const std::set<std::string> &
syscallNames()
{
    static const std::set<std::string> names = {
        "accept",   "bind",     "connect",     "dup",      "dup2",
        "fcntl",    "fork",     "ftruncate",   "getaddrinfo",
        "getsockname", "getsockopt", "kill",   "listen",   "lseek",
        "mkdir",    "open",     "pipe",        "poll",     "read",
        "recv",     "rename",   "select",      "send",     "setsockopt",
        "shutdown", "sigaction", "signal",     "socket",   "unlink",
        "write",
    };
    return names;
}

/** Calls whose unchecked use is accepted project-wide. */
const std::set<std::string> &
syscallAllowlist()
{
    // close() on a teardown path has no useful recovery; flagging it
    // would only breed cargo-cult (void) casts.
    static const std::set<std::string> names = {"close"};
    return names;
}

/**
 * Scan stripped text for standalone-statement calls to the listed
 * syscalls, i.e. calls whose return value is discarded.
 */
void
scanSyscalls(const std::string &text, const std::string &file,
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
        if (!syscallNames().count(word) &&
            !syscallAllowlist().count(word)) {
            i = end;
            continue;
        }

        // Qualified call? foo::bar( — accept std:: (same C function),
        // skip everything else (fs::rename returns void, etc.).
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
        if (syscallAllowlist().count(word)) {
            i = end;
            continue;
        }

        // Statement context: what sits between the previous ';'/'{'/'}'
        // and the call decides whether the result is consumed.
        std::size_t stmt = i - qualifier.size();
        while (stmt > 0) {
            const char c = text[stmt - 1];
            if (c == ';' || c == '{' || c == '}')
                break;
            --stmt;
        }
        std::string before =
            trim(text.substr(stmt, i - qualifier.size() - stmt));
        if (before == "else" || before == "do")
            before.clear();
        if (before.empty()) {
            out.push_back({file, lineOfOffset(text, i), "syscall-return",
                           "return value of " + word +
                               "() is ignored; check it or assign to a "
                               "named variable"});
        }
        i = end;
    }
}

std::vector<Diagnostic>
checkSyscallReturns(const Context &ctx)
{
    std::vector<Diagnostic> out;
    for (const char *sub : {"src/serve", "tools"})
        for (const FileRecord *rec : ctx.filesUnder(sub))
            scanSyscalls(rec->bare, rec->rel, out);
    return out;
}

const bool registered = checks().add(
    {"syscall-return",
     "fallible POSIX calls in src/serve/ and tools/ do not discard "
     "their return value",
     {}},
    &checkSyscallReturns);

} // namespace

void anchorSyscallReturnCheckRegistration() {}

} // namespace dcg::lint
