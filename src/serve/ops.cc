#include "serve/ops.hh"

#include <utility>

namespace dcg::serve {

// Defined in server.cc (the handlers need private Server access);
// idempotent, and doubles as the static-archive anchor.
void registerServerOps();

Registry<OpInfo, OpHandler> &
ops()
{
    static Registry<OpInfo, OpHandler> registry("op", &registerServerOps);
    return registry;
}

JsonValue
opCatalogJson()
{
    JsonValue catalog = JsonValue::array();
    for (const OpInfo &info : ops().catalog()) {
        JsonValue o = JsonValue::object();
        o.set("name", JsonValue::string(info.name));
        o.set("admin", JsonValue::boolean(info.adminOnly));
        o.set("description", JsonValue::string(info.description));
        catalog.push(std::move(o));
    }
    return catalog;
}

} // namespace dcg::serve
