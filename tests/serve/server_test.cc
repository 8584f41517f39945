/**
 * End-to-end tests for dcgserved's Server + ClusterClient: remote
 * execution bit-identical to a local Engine, the stats surface,
 * backpressure on a full queue, bad-request tolerance (a pathologically
 * nested request line and an out-of-range replica count included),
 * warm resubmission, and the cold-restart-from-store acceptance path
 * (0 simulations).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "exp/engine.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/report.hh"
#include "trace/spec2000.hh"

using namespace dcg;
using namespace dcg::serve;

namespace {

constexpr std::uint64_t kInsts = 2000;
constexpr std::uint64_t kWarmup = 500;

/** Run a Server on an ephemeral port for the duration of a test. */
class ServerFixture
{
  public:
    explicit ServerFixture(ServerConfig cfg = {})
    {
        cfg.host = "127.0.0.1";
        cfg.port = 0;
        if (!cfg.workers)
            cfg.workers = 2;
        server = std::make_unique<Server>(cfg);
        io = std::thread([this] { server->run(); });
    }

    ~ServerFixture()
    {
        server->requestStop();
        io.join();
    }

    Endpoint endpoint() const
    {
        return Endpoint{"127.0.0.1", server->port()};
    }

    Server &get() { return *server; }

  private:
    std::unique_ptr<Server> server;
    std::thread io;
};

std::vector<JobSpec>
smallGridSpecs()
{
    std::vector<JobSpec> specs;
    for (const char *bench : {"gzip", "mcf"}) {
        for (const char *scheme : {"base", "dcg"}) {
            JobSpec s;
            s.bench = bench;
            s.scheme = scheme;
            s.insts = kInsts;
            s.warmup = kWarmup;
            specs.push_back(s);
        }
    }
    return specs;
}

std::string
asJson(const std::vector<RunResult> &results)
{
    std::ostringstream os;
    writeResultsJson(results, os);
    return os.str();
}

std::string
freshDir(const std::string &tag)
{
    namespace fs = std::filesystem;
    const fs::path p = fs::temp_directory_path() /
        ("dcg_server_test_" + tag + "_" +
         std::to_string(::getpid()));
    fs::remove_all(p);
    return p.string();
}

/** Send one raw request line to @p port and read one response line. */
std::string
rawExchange(std::uint16_t port, const std::string &line)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    std::string reply;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0) {
        std::size_t off = 0;
        while (off < line.size()) {
            const ssize_t w =
                ::write(fd, line.data() + off, line.size() - off);
            if (w <= 0)
                break;
            off += static_cast<std::size_t>(w);
        }
        char ch = 0;
        while (::read(fd, &ch, 1) == 1 && ch != '\n')
            reply += ch;
    }
    ::close(fd);
    return reply;
}

} // namespace

TEST(Server, RemoteGridIsBitIdenticalToLocalRun)
{
    const auto specs = smallGridSpecs();

    // Local reference: the exact path dcgsim takes without --server.
    exp::Engine local(2);
    std::vector<exp::Job> jobs;
    for (const JobSpec &s : specs)
        jobs.push_back(s.toJob());
    const auto expected = local.run(jobs);

    ServerFixture fx;
    ClusterClient client({fx.endpoint()});
    const auto remote = client.runJobs(specs);

    ASSERT_EQ(remote.size(), expected.size());
    EXPECT_EQ(asJson(remote), asJson(expected));
}

TEST(Server, StatsReportQueueWorkersAndCacheCounters)
{
    ServerFixture fx;
    ClusterClient client({fx.endpoint()});
    const auto specs = smallGridSpecs();
    client.runJobs(specs);

    const JsonValue stats = client.stats();
    EXPECT_EQ(stats.get("workers").asU64(), 2u);
    EXPECT_EQ(stats.get("queue_depth").asU64(), 0u);
    EXPECT_EQ(stats.get("queue_capacity").asU64(), 256u);
    EXPECT_EQ(stats.get("jobs_submitted").asU64(), specs.size());
    EXPECT_EQ(stats.get("jobs_completed").asU64(), specs.size());
    EXPECT_EQ(stats.get("simulations").asU64(), specs.size());
    EXPECT_EQ(stats.get("cache_entries").asU64(), specs.size());
    EXPECT_EQ(stats.get("submits_rejected").asU64(), 0u);
    EXPECT_FALSE(stats.get("draining").asBool(true));
    EXPECT_GT(stats.get("latency_max_us").asU64(), 0u);

    // Resubmitting the same grid is answered from the in-memory cache
    // without occupying a worker or re-simulating.
    client.runJobs(specs);
    const JsonValue warm = client.stats();
    EXPECT_EQ(warm.get("simulations").asU64(), specs.size());
    EXPECT_EQ(warm.get("mem_hits").asU64(), specs.size());
    EXPECT_EQ(warm.get("jobs_completed").asU64(), 2 * specs.size());
}

TEST(Server, FullQueueRejectsWithRetryAfterHint)
{
    ServerConfig cfg;
    cfg.queueCapacity = 0;  // deterministic: every uncached submit spills
    cfg.retryAfterMs = 123;
    ServerFixture fx(cfg);
    ClusterClient client({fx.endpoint()});

    JsonValue req = JsonValue::object();
    req.set("op", JsonValue::string("submit"));
    JobSpec s;
    s.insts = kInsts;
    s.warmup = kWarmup;
    req.set("job", s.toJson());

    const JsonValue resp = client.roundTrip(req);
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "busy");
    EXPECT_EQ(resp.get("retry_after_ms").asU64(), 123u);
    EXPECT_EQ(resp.get("queue_capacity").asU64(), 0u);

    const JsonValue stats = client.stats();
    EXPECT_EQ(stats.get("submits_rejected").asU64(), 1u);
    EXPECT_EQ(stats.get("jobs_submitted").asU64(), 0u);
}

TEST(Server, MalformedAndUnknownRequestsAreRejectedNotFatal)
{
    ServerFixture fx;
    ClusterClient client({fx.endpoint()});

    JsonValue bad = JsonValue::object();
    bad.set("op", JsonValue::string("frobnicate"));
    JsonValue resp = client.roundTrip(bad);
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "bad_request");

    // Unknown benchmark in an otherwise well-formed submit.
    JsonValue submit = JsonValue::object();
    submit.set("op", JsonValue::string("submit"));
    JobSpec s;
    s.bench = "no_such_bench";
    submit.set("job", s.toJson());
    resp = client.roundTrip(submit);
    EXPECT_FALSE(resp.get("ok").asBool(true));

    // Unknown job id.
    JsonValue status = JsonValue::object();
    status.set("op", JsonValue::string("status"));
    status.set("id", JsonValue::integer(std::uint64_t{999999}));
    resp = client.roundTrip(status);
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "unknown_id");

    // The connection (and server) survived all of it.
    const JsonValue stats = client.stats();
    EXPECT_GE(stats.get("bad_requests").asU64(), 2u);
    EXPECT_EQ(stats.get("jobs_submitted").asU64(), 0u);
}

TEST(Server, DeeplyNestedRequestLineIsRejectedNotFatal)
{
    ServerFixture fx;

    // One maximal request line (1 MiB including the newline) of '['
    // — enough nesting to overflow an unbounded recursive parser.
    std::string line(std::size_t{1} << 20, '[');
    line.back() = '\n';
    JsonValue resp;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(rawExchange(fx.get().port(), line),
                                 resp, err))
        << err;
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "bad_request");
    EXPECT_NE(resp.get("detail").asString().find("nesting"),
              std::string::npos)
        << resp.dump();

    // The node survived and keeps serving.
    ClusterClient client({fx.endpoint()});
    const JsonValue stats = client.stats();
    EXPECT_GE(stats.get("bad_requests").asU64(), 1u);
}

TEST(Server, ReplicateWithAnOutOfRangeCountIsRejected)
{
    ServerConfig cfg;
    const std::string dir = freshDir("replicate_range");
    cfg.storeDir = dir;
    ServerFixture fx(cfg);
    const auto replicate = [&](const std::string &cycles) {
        JsonValue resp;
        std::string err;
        const std::string reply = rawExchange(
            fx.get().port(),
            "{\"op\": \"replicate\", \"key\": \"k1\", \"result\": "
            "[{\"benchmark\": \"gzip\", \"scheme\": \"dcg\", "
            "\"cycles\": " + cycles + "}]}\n");
        EXPECT_TRUE(JsonValue::parse(reply, resp, err)) << err;
        return resp;
    };

    // 1e30 cycles is no uint64_t count: refused, and nothing stored.
    JsonValue resp = replicate("1e30");
    EXPECT_EQ(resp.get("error").asString(), "bad_request") << resp.dump();
    ClusterClient client({fx.endpoint()});
    EXPECT_EQ(client.stats().get("store_records").asU64(), 0u);

    // The same frame with a real count is stored.
    resp = replicate("5");
    EXPECT_TRUE(resp.get("ok").asBool(false)) << resp.dump();
    EXPECT_EQ(client.stats().get("store_records").asU64(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(Server, ColdRestartServesGridEntirelyFromDisk)
{
    const std::string dir = freshDir("restart");
    const auto specs = smallGridSpecs();
    std::string firstJson;

    {
        ServerConfig cfg;
        cfg.storeDir = dir;
        ServerFixture fx(cfg);
        ClusterClient client({fx.endpoint()});
        firstJson = asJson(client.runJobs(specs));
        const JsonValue stats = client.stats();
        EXPECT_EQ(stats.get("simulations").asU64(), specs.size());
        EXPECT_EQ(stats.get("store_records").asU64(), specs.size());
    }  // server drains and exits — "process restart"

    {
        ServerConfig cfg;
        cfg.storeDir = dir;
        ServerFixture fx(cfg);
        ClusterClient client({fx.endpoint()});
        const std::string secondJson = asJson(client.runJobs(specs));
        EXPECT_EQ(firstJson, secondJson);

        // The acceptance bar: every job served from disk, zero
        // simulations in the restarted process.
        const JsonValue stats = client.stats();
        EXPECT_EQ(stats.get("simulations").asU64(), 0u);
        EXPECT_EQ(stats.get("disk_hits").asU64(), specs.size());
        EXPECT_EQ(stats.get("jobs_completed").asU64(), specs.size());
    }

    std::filesystem::remove_all(dir);
}

TEST(Server, StopWhileIdleDrainsCleanly)
{
    ServerFixture fx;
    ClusterClient client({fx.endpoint()});
    JobSpec s;
    s.insts = kInsts;
    s.warmup = kWarmup;
    const auto results = client.runJobs({s});
    ASSERT_EQ(results.size(), 1u);
    // ~ServerFixture requests the stop and joins run(); the test
    // passes iff that returns (no hang, no crash).
}
