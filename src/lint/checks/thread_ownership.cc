/**
 * @file
 * thread-ownership: static race checking for the serve layer, driven
 * by the DCG_OWNER_THREAD / DCG_ANY_THREAD / DCG_GUARDED_BY /
 * DCG_REQUIRES annotations from src/common/thread_annotations.hh.
 *
 * The serve layer's concurrency contract is ownership-based: a
 * PeerPool (and the poll loop around it) belongs to one event-loop
 * thread; other threads interact only through the designated
 * injection points. That contract used to live in comments. The
 * annotations make it machine-readable and this check enforces three
 * rules over the lexical function index:
 *
 *  (a) ANY -> OWNER: a method annotated DCG_ANY_THREAD must not call
 *      a method that is owner-thread-only. A call name counts as
 *      owner-thread-only when it is annotated DCG_OWNER_THREAD on
 *      some class and DCG_ANY_THREAD on none (names that are OWNER
 *      on one class and ANY on another cannot be attributed
 *      lexically and are skipped). Constructors and destructors are
 *      excluded — they run before/after the object is shared.
 *      Deliberate ownership handoff (spawning the owner thread)
 *      carries a dcglint:allow(thread-ownership) marker.
 *
 *  (b) GUARDED_BY: a method body that mentions a DCG_GUARDED_BY(mu)
 *      member of its own class must also mention mu (taking the
 *      lock), unless the method is annotated DCG_REQUIRES(mu) —
 *      the *Locked caller-holds-lock convention. Constructors and
 *      destructors are excluded (no concurrent access yet/anymore).
 *
 *  (c) Coverage: in a class that carries any thread annotation,
 *      every public method declaration must state its contract
 *      (OWNER, ANY or REQUIRES). Unannotated classes are exempt, so
 *      adoption stays incremental.
 */

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "lint/context.hh"
#include "lint/lexer.hh"
#include "lint/registry.hh"

namespace dcg::lint {

namespace {

constexpr const char *kAnchor = "src/common/thread_annotations.hh";
constexpr const char *kCheck = "thread-ownership";

const char *const kScopes[] = {"src/serve", "tools"};

/** One class definition with its thread annotations. */
struct ClassAnn
{
    std::string name;
    const FileRecord *file = nullptr;
    std::size_t begin = 0;  ///< offset of '{' in file->bare
    std::size_t end = 0;    ///< one past the matching '}'
    bool isStruct = false;  ///< default access
    std::set<std::string> owner;  ///< DCG_OWNER_THREAD methods
    std::set<std::string> any;    ///< DCG_ANY_THREAD methods
    std::map<std::string, std::string> guarded;  ///< member -> mutex
    std::map<std::string, std::string> needs;    ///< method -> mutex

    bool annotated() const
    {
        return !owner.empty() || !any.empty() || !guarded.empty() ||
               !needs.empty();
    }
};

bool
isQualifierWord(const std::string &w)
{
    return w == "const" || w == "noexcept" || w == "override" ||
           w == "final" || w == "mutable";
}

std::size_t
matchForward(const std::string &t, std::size_t open, char lhs, char rhs)
{
    int depth = 0;
    for (std::size_t i = open; i < t.size(); ++i) {
        if (t[i] == lhs)
            ++depth;
        else if (t[i] == rhs && --depth == 0)
            return i + 1;
    }
    return t.size();
}

/**
 * The method name a trailing annotation at @p pos belongs to: walk
 * left over qualifier tokens and the parameter list to the declarator
 * identifier. Empty when the shape is not `name(params) quals ANNOT`.
 */
std::string
methodNameBefore(const std::string &t, std::size_t pos)
{
    std::size_t i = pos;
    while (true) {
        while (i > 0 &&
               std::isspace(static_cast<unsigned char>(t[i - 1])))
            --i;
        if (i == 0)
            return {};
        if (isIdentChar(t[i - 1])) {
            std::size_t b = i;
            while (b > 0 && isIdentChar(t[b - 1]))
                --b;
            const std::string w = t.substr(b, i - b);
            if (!isQualifierWord(w))
                return {};
            i = b;
            continue;
        }
        if (t[i - 1] == ')') {
            // Match backwards to the opening paren.
            int depth = 0;
            std::size_t p = i;
            while (p > 0) {
                --p;
                if (t[p] == ')')
                    ++depth;
                else if (t[p] == '(' && --depth == 0)
                    break;
            }
            if (depth != 0)
                return {};
            std::size_t b = p;
            while (b > 0 &&
                   std::isspace(static_cast<unsigned char>(t[b - 1])))
                --b;
            std::size_t nb = b;
            while (nb > 0 && isIdentChar(t[nb - 1]))
                --nb;
            const std::string w = t.substr(nb, b - nb);
            if (w == "noexcept") {  // noexcept(...) — keep walking
                i = nb;
                continue;
            }
            return w;
        }
        return {};
    }
}

/** The argument of a macro invocation starting at @p macroEnd. */
std::string
macroArg(const std::string &t, std::size_t macroEnd)
{
    std::size_t j = macroEnd;
    while (j < t.size() &&
           std::isspace(static_cast<unsigned char>(t[j])))
        ++j;
    if (j >= t.size() || t[j] != '(')
        return {};
    const std::size_t close = matchForward(t, j, '(', ')');
    return trim(t.substr(j + 1, close - j - 2));
}

/** Whole-word occurrences of @p word within [begin, end) of @p t. */
std::vector<std::size_t>
wordOccurrences(const std::string &t, const std::string &word,
                std::size_t begin, std::size_t end)
{
    std::vector<std::size_t> out;
    std::size_t pos = begin;
    while ((pos = t.find(word, pos)) != std::string::npos &&
           pos < end) {
        const std::size_t after = pos + word.size();
        if ((pos == 0 || !isIdentChar(t[pos - 1])) &&
            (after >= t.size() || !isIdentChar(t[after])))
            out.push_back(pos);
        pos = after;
    }
    return out;
}

/** Find class/struct definitions in @p rec and parse annotations. */
void
collectClasses(const FileRecord *rec, std::vector<ClassAnn> &out)
{
    const std::string &t = rec->bare;
    for (const char *kw : {"class", "struct"}) {
        for (std::size_t pos :
             wordOccurrences(t, kw, 0, t.size())) {
            // `enum class` is not a class.
            std::size_t b = pos;
            while (b > 0 &&
                   std::isspace(static_cast<unsigned char>(t[b - 1])))
                --b;
            if (b >= 4 && t.compare(b - 4, 4, "enum") == 0)
                continue;

            std::size_t j = pos + std::string(kw).size();
            while (j < t.size() &&
                   std::isspace(static_cast<unsigned char>(t[j])))
                ++j;
            std::size_t ne = j;
            while (ne < t.size() && isIdentChar(t[ne]))
                ++ne;
            if (ne == j)
                continue;  // anonymous / template parameter
            const std::string name = t.substr(j, ne - j);

            // Scan to the body brace; ';' first = forward
            // declaration, ',' or '>' = template parameter.
            std::size_t k = ne;
            while (k < t.size() && t[k] != '{' && t[k] != ';' &&
                   t[k] != ',' && t[k] != '>' && t[k] != '(')
                ++k;
            if (k >= t.size() || t[k] != '{')
                continue;

            ClassAnn c;
            c.name = name;
            c.file = rec;
            c.begin = k;
            c.end = matchForward(t, k, '{', '}');
            c.isStruct = std::string(kw) == "struct";

            for (std::size_t m : wordOccurrences(
                     t, "DCG_OWNER_THREAD", c.begin, c.end)) {
                const std::string fn = methodNameBefore(t, m);
                if (!fn.empty())
                    c.owner.insert(fn);
            }
            for (std::size_t m : wordOccurrences(
                     t, "DCG_ANY_THREAD", c.begin, c.end)) {
                const std::string fn = methodNameBefore(t, m);
                if (!fn.empty())
                    c.any.insert(fn);
            }
            for (std::size_t m : wordOccurrences(
                     t, "DCG_REQUIRES", c.begin, c.end)) {
                const std::string fn = methodNameBefore(t, m);
                const std::string mu =
                    macroArg(t, m + std::string("DCG_REQUIRES").size());
                if (!fn.empty() && !mu.empty())
                    c.needs.emplace(fn, mu);
            }
            for (std::size_t m : wordOccurrences(
                     t, "DCG_GUARDED_BY", c.begin, c.end)) {
                const std::string mu = macroArg(
                    t, m + std::string("DCG_GUARDED_BY").size());
                std::size_t e = m;
                while (e > 0 && std::isspace(
                           static_cast<unsigned char>(t[e - 1])))
                    --e;
                std::size_t mb = e;
                while (mb > 0 && isIdentChar(t[mb - 1]))
                    --mb;
                const std::string member = t.substr(mb, e - mb);
                if (!member.empty() && !mu.empty())
                    c.guarded.emplace(member, mu);
            }
            out.push_back(std::move(c));
        }
    }
}

/** Line of the first whole-word use of @p word in @p f's body. */
int
wordLineInBody(const FileRecord *rec, const FunctionDef &f,
               const std::string &word)
{
    const std::vector<std::size_t> occ =
        wordOccurrences(rec->bare, word, f.bodyBegin, f.bodyEnd);
    return occ.empty() ? f.line : lineOfOffset(rec->bare, occ.front());
}

/** The annotated class @p f belongs to, or nullptr: out-of-line
 *  definitions match by qualifier, in-class definitions by the
 *  innermost class body span containing them. */
const ClassAnn *
classOf(const std::vector<ClassAnn> &classes, const FileRecord *rec,
        const FunctionDef &f)
{
    const ClassAnn *best = nullptr;
    for (const ClassAnn &c : classes) {
        if (!f.qualifier.empty()) {
            if (c.name == f.qualifier)
                return &c;
            continue;
        }
        if (c.file == rec && c.begin < f.bodyBegin &&
            f.bodyEnd <= c.end &&
            (!best || c.begin > best->begin))
            best = &c;
    }
    return best;
}

/** Rule (c): public declarations in annotated classes must carry a
 *  thread annotation. */
void
checkCoverage(const ClassAnn &c, std::vector<Diagnostic> &out)
{
    const std::string &t = c.file->bare;
    bool isPublic = c.isStruct;
    int depth = 1;
    std::size_t i = c.begin + 1;
    while (i < c.end) {
        const char ch = t[i];
        if (ch == '{') {
            ++depth;
            ++i;
            continue;
        }
        if (ch == '}') {
            --depth;
            ++i;
            continue;
        }
        if (depth != 1 || !isIdentChar(ch) ||
            (i > 0 && isIdentChar(t[i - 1]))) {
            ++i;
            continue;
        }
        std::size_t e = i;
        while (e < c.end && isIdentChar(t[e]))
            ++e;
        const std::string word = t.substr(i, e - i);

        // Access labels.
        if (word == "public" || word == "private" ||
            word == "protected") {
            std::size_t j = e;
            while (j < c.end &&
                   std::isspace(static_cast<unsigned char>(t[j])))
                ++j;
            if (j < c.end && t[j] == ':' &&
                (j + 1 >= c.end || t[j + 1] != ':')) {
                isPublic = word == "public";
                i = j + 1;
                continue;
            }
        }

        // Candidate method name: identifier directly followed by '('
        // that is not a macro, keyword, or template/param context.
        std::size_t j = e;
        while (j < c.end &&
               std::isspace(static_cast<unsigned char>(t[j])))
            ++j;
        if (j >= c.end || t[j] != '(' || !isPublic ||
            word.rfind("DCG_", 0) == 0 || word == c.name ||
            word == "operator" || word == "decltype" ||
            word == "sizeof" || word == "alignof" ||
            word == "static_assert" || word == "explicit") {
            i = e;
            continue;
        }
        {
            std::size_t b = i;
            while (b > c.begin &&
                   std::isspace(static_cast<unsigned char>(t[b - 1])))
                --b;
            const char prev = b > c.begin ? t[b - 1] : '{';
            if (prev == '<' || prev == '(' || prev == ',' ||
                prev == '~' || prev == ':') {
                // template argument, parameter, destructor, or
                // qualified name — not a plain declaration name
                i = e;
                continue;
            }
        }
        // Declaration prefix: bail on static/friend/using/typedef/
        // template declarations.
        {
            std::size_t p = i;
            while (p > c.begin && t[p - 1] != ';' && t[p - 1] != '{' &&
                   t[p - 1] != '}')
                --p;
            const std::string prefix = t.substr(p, i - p);
            bool skip = false;
            for (const char *w :
                 {"static", "friend", "using", "typedef", "template"})
                if (containsWord(prefix, w))
                    skip = true;
            // An access label inside the prefix resets it: only look
            // after the last ':'.
            if (skip) {
                i = e;
                continue;
            }
        }

        // Walk past the parameter list and trailing qualifiers to the
        // declaration end; record any DCG annotation seen.
        std::size_t k = matchForward(t, j, '(', ')');
        bool annotated = false;
        bool deleted = false;
        while (k < c.end) {
            if (std::isspace(static_cast<unsigned char>(t[k])) ||
                t[k] == '&') {
                ++k;
                continue;
            }
            if (t[k] == ';' || t[k] == '{' || t[k] == ':')
                break;
            if (t[k] == '=') {
                std::size_t v = k + 1;
                while (v < c.end && std::isspace(
                           static_cast<unsigned char>(t[v])))
                    ++v;
                std::size_t ve = v;
                while (ve < c.end && isIdentChar(t[ve]))
                    ++ve;
                const std::string val = t.substr(v, ve - v);
                if (val == "delete" || val == "default")
                    deleted = true;
                k = ve;
                continue;
            }
            if (isIdentChar(t[k])) {
                std::size_t w = k;
                while (w < c.end && isIdentChar(t[w]))
                    ++w;
                const std::string q = t.substr(k, w - k);
                if (q == "DCG_OWNER_THREAD" || q == "DCG_ANY_THREAD" ||
                    q == "DCG_REQUIRES") {
                    annotated = true;
                    k = w;
                    if (q == "DCG_REQUIRES") {
                        std::size_t p = k;
                        while (p < c.end && std::isspace(
                                   static_cast<unsigned char>(t[p])))
                            ++p;
                        if (p < c.end && t[p] == '(')
                            k = matchForward(t, p, '(', ')');
                    }
                    continue;
                }
                if (isQualifierWord(q)) {
                    k = w;
                    if (q == "noexcept") {
                        std::size_t p = k;
                        while (p < c.end && std::isspace(
                                   static_cast<unsigned char>(t[p])))
                            ++p;
                        if (p < c.end && t[p] == '(')
                            k = matchForward(t, p, '(', ')');
                    }
                    continue;
                }
                break;  // trailing return type or similar — give up
            }
            break;
        }
        if (!annotated && !deleted) {
            out.push_back(
                {c.file->rel, lineOfOffset(t, i), kCheck,
                 "public method '" + c.name + "::" + word +
                     "' in an annotated class lacks a thread "
                     "annotation (DCG_OWNER_THREAD / DCG_ANY_THREAD "
                     "/ DCG_REQUIRES)"});
        }
        i = e;
    }
}

std::vector<Diagnostic>
checkThreadOwnership(const Context &ctx)
{
    std::vector<Diagnostic> out;

    std::vector<const FileRecord *> scope;
    for (const char *sub : kScopes)
        for (const FileRecord *rec : ctx.filesUnder(sub))
            scope.push_back(rec);

    std::vector<ClassAnn> classes;
    for (const FileRecord *rec : scope)
        collectClasses(rec, classes);

    // Owner-thread-only call names: OWNER somewhere, ANY nowhere.
    std::set<std::string> ownerOnly, anySomewhere;
    for (const ClassAnn &c : classes) {
        ownerOnly.insert(c.owner.begin(), c.owner.end());
        anySomewhere.insert(c.any.begin(), c.any.end());
    }
    for (const std::string &n : anySomewhere)
        ownerOnly.erase(n);

    for (const FileRecord *rec : scope) {
        for (const FunctionDef &f : rec->functions) {
            const ClassAnn *cls = classOf(classes, rec, f);
            if (!cls || !cls->annotated())
                continue;
            const bool isCtorDtor =
                f.name == cls->name || f.name.front() == '~';
            if (isCtorDtor)
                continue;

            // Rule (a): ANY -> OWNER call.
            if (cls->any.count(f.name)) {
                std::set<std::string> called(
                    f.unqualifiedCalls.begin(),
                    f.unqualifiedCalls.end());
                called.insert(f.memberCalls.begin(),
                              f.memberCalls.end());
                for (const std::string &callee : called) {
                    if (!ownerOnly.count(callee) ||
                        callee == f.name)
                        continue;
                    out.push_back(
                        {rec->rel, wordLineInBody(rec, f, callee),
                         kCheck,
                         "any-thread method '" + cls->name +
                             "::" + f.name +
                             "' calls owner-thread-only method '" +
                             callee + "'"});
                }
            }

            // Rule (b): guarded member used without the mutex.
            for (const auto &[member, mu] : cls->guarded) {
                if (wordOccurrences(rec->bare, member, f.bodyBegin,
                                    f.bodyEnd)
                        .empty())
                    continue;
                const auto need = cls->needs.find(f.name);
                if (need != cls->needs.end() && need->second == mu)
                    continue;  // *Locked: caller holds it
                if (!wordOccurrences(rec->bare, mu, f.bodyBegin,
                                     f.bodyEnd)
                         .empty())
                    continue;  // the lock (or the mutex) is visible
                out.push_back(
                    {rec->rel, wordLineInBody(rec, f, member), kCheck,
                     "method '" + cls->name + "::" + f.name +
                         "' uses member '" + member +
                         "' (DCG_GUARDED_BY(" + mu +
                         ")) without taking " + mu +
                         " or declaring DCG_REQUIRES(" + mu + ")"});
            }
        }
    }

    // Rule (c): coverage of public declarations.
    for (const ClassAnn &c : classes)
        if (c.annotated())
            checkCoverage(c, out);

    return out;
}

const bool registered = checks().add(
    {kCheck,
     "serve-layer thread-ownership contract: no any-thread calls "
     "into owner-thread-only methods, no guarded-member access "
     "without the mutex, full annotation coverage of annotated "
     "classes",
     {kAnchor}},
    &checkThreadOwnership);

} // namespace

void anchorThreadOwnershipCheckRegistration() {}

} // namespace dcg::lint
