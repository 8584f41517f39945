#include "serve/ops.hh"

#include <map>
#include <utility>

#include "common/log.hh"

namespace dcg::serve {

// Defined in server.cc (the handlers need private Server access);
// idempotent, and doubles as the static-archive anchor that keeps the
// registration code out of the linker's dead-strip.
void registerServerOps();

namespace {

struct OpEntry
{
    OpInfo info;
    OpHandler handler;
};

/** Function-local static: safe against static-init ordering. */
std::map<std::string, OpEntry> &
table()
{
    static std::map<std::string, OpEntry> entries;
    return entries;
}

void
ensureBuiltins()
{
    registerServerOps();
}

} // namespace

bool
registerOp(OpInfo info, OpHandler handler)
{
    if (info.name.empty())
        fatal("registerOp: empty op name");
    if (!handler)
        fatal("registerOp('", info.name, "'): null handler");
    const std::string name = info.name;
    const auto [it, inserted] = table().emplace(
        name, OpEntry{std::move(info), std::move(handler)});
    (void)it;
    if (!inserted)
        fatal("registerOp: duplicate op '", name, "'");
    return true;
}

std::vector<OpInfo>
opCatalog()
{
    ensureBuiltins();
    std::vector<OpInfo> catalog;
    catalog.reserve(table().size());
    for (const auto &[name, entry] : table())
        catalog.push_back(entry.info);
    return catalog;
}

std::vector<std::string>
opNames()
{
    ensureBuiltins();
    std::vector<std::string> names;
    names.reserve(table().size());
    for (const auto &[name, entry] : table())
        names.push_back(name);
    return names;
}

std::string
opNamesJoined(char sep)
{
    std::string joined;
    for (const std::string &name : opNames()) {
        if (!joined.empty())
            joined += sep;
        joined += name;
    }
    return joined;
}

bool
isOp(const std::string &name)
{
    ensureBuiltins();
    return table().count(name) != 0;
}

const OpInfo *
findOp(const std::string &name)
{
    ensureBuiltins();
    const auto it = table().find(name);
    return it == table().end() ? nullptr : &it->second.info;
}

const OpHandler *
findOpHandler(const std::string &name)
{
    ensureBuiltins();
    const auto it = table().find(name);
    return it == table().end() ? nullptr : &it->second.handler;
}

JsonValue
opCatalogJson()
{
    JsonValue ops = JsonValue::array();
    for (const OpInfo &info : opCatalog()) {
        JsonValue o = JsonValue::object();
        o.set("name", JsonValue::string(info.name));
        o.set("admin", JsonValue::boolean(info.adminOnly));
        o.set("description", JsonValue::string(info.description));
        ops.push(std::move(o));
    }
    return ops;
}

} // namespace dcg::serve
