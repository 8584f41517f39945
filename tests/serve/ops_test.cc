/**
 * Op-handler registry tests: the string-keyed catalog that replaced
 * the server's verb chain. Covers the catalog surface, the structured
 * unknown-op rejection (which must name the catalog), the stats `ops`
 * listing, and the one-version envelope every verb answers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "serve/client.hh"
#include "serve/ops.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

using namespace dcg;
using namespace dcg::serve;

namespace {

/** One bound, running server on an ephemeral port. */
class OneServer
{
  public:
    OneServer()
    {
        ServerConfig cfg;
        cfg.host = "127.0.0.1";
        cfg.port = 0;
        cfg.workers = 1;
        server = std::make_unique<Server>(cfg);
        thread = std::thread([&srv = *server] { srv.run(); });
    }

    ~OneServer()
    {
        server->requestStop();
        thread.join();
    }

    Endpoint endpoint() const
    {
        return Endpoint{"127.0.0.1", server->port()};
    }

    /** Raw exchange at an explicit envelope version (0 = unstamped). */
    JsonValue exchange(JsonValue req, unsigned version)
    {
        Connection conn;
        std::string err;
        if (!conn.open(endpoint(), err))
            fatal("ops_test exchange: ", err);
        if (version)
            stampVersion(req, version);
        JsonValue resp;
        if (!conn.roundTrip(req, resp, err))
            fatal("ops_test exchange: ", err);
        return resp;
    }

  private:
    std::unique_ptr<Server> server;
    std::thread thread;
};

JsonValue
opRequest(const std::string &op)
{
    JsonValue req = JsonValue::object();
    req.set("op", JsonValue::string(op));
    return req;
}

} // namespace

TEST(OpRegistry, CatalogNamesEveryVerb)
{
    const std::vector<std::string> expected = {
        "compact", "epoch",  "fetch",     "join",  "leave", "replicate",
        "result",  "ring",   "shutdown",  "stats", "status", "submit"};
    std::vector<std::string> names = ops().names();
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, expected);

    for (const OpInfo &info : ops().catalog()) {
        EXPECT_FALSE(info.description.empty()) << info.name;
        ASSERT_NE(ops().find(info.name), nullptr) << info.name;
        EXPECT_EQ(ops().find(info.name)->info.adminOnly, info.adminOnly);
    }
    EXPECT_EQ(ops().find("no-such-verb"), nullptr);

    // Admin verbs are flagged as such.
    EXPECT_TRUE(ops().find("shutdown")->info.adminOnly);
    EXPECT_TRUE(ops().find("join")->info.adminOnly);
    EXPECT_TRUE(ops().find("leave")->info.adminOnly);
    EXPECT_FALSE(ops().find("submit")->info.adminOnly);
    EXPECT_FALSE(ops().find("epoch")->info.adminOnly);
}

TEST(OpRegistry, UnknownOpNamesTheCatalog)
{
    OneServer srv;
    const JsonValue resp =
        srv.exchange(opRequest("frobnicate"), kProtocolVersion);
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "bad_request");
    const std::string detail = resp.get("detail").asString();
    EXPECT_NE(detail.find("frobnicate"), std::string::npos) << detail;
    // The rejection lists what IS understood.
    for (const char *known : {"submit", "join", "ring", "stats"})
        EXPECT_NE(detail.find(known), std::string::npos)
            << detail << " missing " << known;
}

TEST(OpRegistry, StatsListsTheOps)
{
    OneServer srv;
    const JsonValue resp =
        srv.exchange(opRequest("stats"), kProtocolVersion);
    ASSERT_TRUE(resp.get("ok").asBool(false)) << resp.dump();
    const JsonValue &ops = resp.get("stats").get("ops");
    ASSERT_TRUE(ops.isArray());
    EXPECT_EQ(ops.items().size(), serve::ops().catalog().size());
    bool sawJoin = false;
    for (const JsonValue &o : ops.items()) {
        EXPECT_FALSE(o.get("name").asString().empty());
        EXPECT_FALSE(o.get("description").asString().empty());
        if (o.get("name").asString() == "join") {
            sawJoin = true;
            EXPECT_TRUE(o.get("admin").asBool(false));
        }
    }
    EXPECT_TRUE(sawJoin);
}

TEST(OpRegistry, VerbsAnswerOnlyTheCurrentEnvelope)
{
    OneServer srv;
    // Unstamped and current-version requests reach every verb, the
    // membership verbs included.
    for (const unsigned version : {0u, kProtocolVersion}) {
        for (const char *op : {"ring", "stats"}) {
            const JsonValue resp = srv.exchange(opRequest(op), version);
            EXPECT_TRUE(resp.get("ok").asBool(false))
                << op << " at version " << version << ": "
                << resp.dump();
            EXPECT_EQ(resp.get("version").asU64(0), kProtocolVersion);
        }
    }
    // Any other version is rejected before dispatch, whatever the verb.
    for (const unsigned version : {1u, 4u, kProtocolVersion + 1}) {
        const JsonValue resp = srv.exchange(opRequest("ring"), version);
        EXPECT_FALSE(resp.get("ok").asBool(true));
        EXPECT_EQ(resp.get("error").asString(), "unsupported_version")
            << "version " << version << ": " << resp.dump();
        EXPECT_EQ(resp.get("supported").asU64(0), kProtocolVersion);
    }
}
