/**
 * @file
 * Name-keyed plugin registry: the one table behind gating schemes
 * (gating/registry.hh), dcglint checks (lint/registry.hh) and server
 * ops (serve/ops.hh).
 *
 * A domain supplies an Info struct with a `name` member, the function
 * type it dispatches to, and one accessor that owns its Registry as a
 * function-local static (safe against static-init ordering). A plugin
 * registers from its own translation unit at static-init time:
 *
 *     namespace { const bool registered = schemes().add(
 *         {"myscheme", "one-line description", ...}, factory); }
 *
 * A translation unit whose only definitions are such statics is
 * dropped from a static archive unless something references it. So
 * every domain passes a builtins hook that calls one empty anchor
 * function per plugin file, and every lookup runs the hook first.
 * add() never runs it: a hook may itself register through add() (the
 * server's ops do), and calling it from there would re-enter it.
 */

#ifndef DCG_COMMON_REGISTRY_HH
#define DCG_COMMON_REGISTRY_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace dcg {

template <typename Info, typename Fn>
class Registry
{
  public:
    struct Entry
    {
        Info info;
        Fn fn;
    };

    /** @p what names one entry in errors ("scheme", "check", "op");
     *  @p hook (the builtins anchors) runs before every lookup. */
    Registry(const char *what, void (*hook)()) : kind(what), builtins(hook)
    {
    }

    /**
     * Register @p fn under info.name. Returns true, so a namespace-
     * scope `const bool` can run the registration at static-init
     * time. An empty name, a null function or a duplicate name is
     * fatal(): two files claiming one name is a build error, not a
     * runtime preference.
     */
    bool add(Info info, Fn fn)
    {
        if (info.name.empty())
            fatal("registering a ", kind, ": empty name");
        if (!fn)
            fatal("registering ", kind, " '", info.name,
                  "': null function");
        std::string name = info.name;
        if (!table.emplace(name, Entry{std::move(info), std::move(fn)})
                 .second)
            fatal("registering ", kind, " '", name, "': duplicate name");
        return true;
    }

    /** The entry registered as @p name, or nullptr. */
    const Entry *find(const std::string &name)
    {
        builtins();
        const auto it = table.find(name);
        return it == table.end() ? nullptr : &it->second;
    }

    /** Every entry's Info, sorted by name. */
    std::vector<Info> catalog()
    {
        builtins();
        std::vector<Info> out;
        out.reserve(table.size());
        for (const auto &[name, entry] : table)
            out.push_back(entry.info);
        return out;
    }

    /** Registered names, sorted. */
    std::vector<std::string> names()
    {
        builtins();
        std::vector<std::string> out;
        out.reserve(table.size());
        for (const auto &[name, entry] : table)
            out.push_back(name);
        return out;
    }

    /** Names joined for usage and error text, e.g. "base|cgooo|dcg". */
    std::string joined(char sep = '|')
    {
        std::string out;
        for (const std::string &name : names()) {
            if (!out.empty())
                out += sep;
            out += name;
        }
        return out;
    }

  private:
    const char *kind;
    void (*builtins)();
    std::map<std::string, Entry> table;
};

} // namespace dcg

#endif // DCG_COMMON_REGISTRY_HH
