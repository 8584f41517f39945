/**
 * @file
 * The op-handler registry for the dcgserved wire protocol.
 *
 * Every protocol verb ("submit", "stats", "join", ...) is one OpInfo
 * plus a handler in ops(), registered from server.cc through the same
 * common/registry.hh template as gating schemes and lint checks: the
 * server's dispatch loop looks the verb up here instead of walking an
 * `op ==` if/else chain, an unknown verb gets a structured error
 * naming the whole catalog (the same UX as `--scheme`/`--check`), and
 * the catalog itself is a first-class part of the protocol surface —
 * the `stats` response lists it so clients can discover what a server
 * speaks.
 *
 * An OpInfo names the verb and whether it is an *admin* verb
 * (operator surface — mutates the service rather than submitting
 * work). The envelope is checked once, before dispatch: every verb
 * answers the one protocol version the server speaks.
 *
 * Handlers run on the server's I/O thread with private access to the
 * Server (registration happens inside server.cc). A handler either
 * fills OpCall::resp — the dispatch loop stamps version, echoes the
 * rid and writes it — or sets OpCall::deferred after parking the
 * response (submit+wait, result+wait, epoch/join/leave quiesce acks).
 */

#ifndef DCG_SERVE_OPS_HH
#define DCG_SERVE_OPS_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/json.hh"
#include "common/registry.hh"

namespace dcg::serve {

class Server;

/** Everything the catalog knows about one protocol verb. */
struct OpInfo
{
    std::string name;
    bool adminOnly = false;   ///< operator verb, not a work submission
    std::string description;  ///< one line, for catalogs and docs
};

/** One request mid-dispatch; see the file comment for the contract. */
struct OpCall
{
    const JsonValue &req;     ///< the parsed request line
    std::uint64_t connId;     ///< originating connection (for parking)
    JsonValue resp;           ///< the response, unless deferred
    bool deferred = false;    ///< response parked; write nothing now
};

using OpHandler = std::function<void(Server &, OpCall &)>;

/**
 * The op registry. Its builtins hook is registerServerOps() (in
 * server.cc: the handlers need private Server access), which
 * registers every verb through add() on the first lookup.
 */
Registry<OpInfo, OpHandler> &ops();

/** The catalog as a JSON array (name/admin/description)
 *  — the `ops` member of the stats response. */
JsonValue opCatalogJson();

} // namespace dcg::serve

#endif // DCG_SERVE_OPS_HH
