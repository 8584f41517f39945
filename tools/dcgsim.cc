/**
 * @file
 * dcgsim — command-line driver for the reproduction.
 *
 * Runs one or all benchmark models under a gating scheme with common
 * configuration overrides, prints the summary and (optionally) the
 * full statistics registry or machine-readable results.
 *
 * Runs go through the exp::Engine, so --bench=all executes the
 * benchmarks in parallel (--jobs / DCG_JOBS, default all cores) with
 * bit-identical results to a serial run. With
 * --server=HOST:PORT[,HOST:PORT...] the same jobs are executed by one
 * dcgserved instance — or fanned out across a sharded cluster, each
 * job routed to the consistent-hash owner of its key — and output is
 * byte-identical either way (the request is expanded through the same
 * presets path on the server, and results round-trip bit-exactly).
 *
 * After an engine run a one-line JSON summary with the cache counters
 * goes to stderr ({"dcgsim_summary": {...}}), so sweep scripts can
 * verify dedup without parsing human-readable output.
 *
 * Examples:
 *   dcgsim --bench=mcf --scheme=dcg --dump-stats
 *   dcgsim --bench=all --scheme=plb-ext --insts=300000 --csv=out.csv
 *   dcgsim --bench=all --scheme=dcg --jobs=8 --json=out.json
 *   dcgsim --bench=all --scheme=dcg --server=127.0.0.1:7878
 *   dcgsim --bench=all --server=127.0.0.1:7878,127.0.0.1:7879
 *   dcgsim --server=127.0.0.1:7878 --server-stats
 *   dcgsim --server=127.0.0.1:7878 --join=127.0.0.1:7880
 *   dcgsim --server=127.0.0.1:7878 --ring
 */

#include <iostream>
#include <vector>

#include "common/log.hh"
#include "common/options.hh"
#include "common/table.hh"
#include "exp/engine.hh"
#include "gating/registry.hh"
#include "serve/client.hh"
#include "sim/presets.hh"
#include "sim/report.hh"
#include "trace/spec2000.hh"

using namespace dcg;

namespace {

/**
 * Satellite hardening: --jobs must be a real non-negative integer.
 * 0 keeps the default resolution (DCG_JOBS, then all cores); garbage
 * or negative values are a clear fatal() instead of a silent strtoll
 * coercion to "run with some other worker count".
 */
unsigned
resolveJobsOption(const Options &opts)
{
    if (!opts.has("jobs"))
        return 0;
    const std::string raw = opts.getString("jobs", "");
    std::int64_t v = 0;
    if (!Options::parseInt(raw, v) || v < 0)
        fatal("invalid --jobs='", raw,
              "': expected a non-negative integer (0 = default worker"
              " count)");
    return static_cast<unsigned>(v);
}

/** One-line machine-readable run summary on stderr. */
void
printSummary(std::size_t jobs, const exp::Engine &engine)
{
    JsonValue s = JsonValue::object();
    s.set("jobs", JsonValue::integer(std::uint64_t{jobs}));
    s.set("cache_hits", JsonValue::integer(engine.cacheHits()));
    s.set("cache_misses", JsonValue::integer(engine.cacheMisses()));
    s.set("cache_size", JsonValue::integer(std::uint64_t{engine.cacheSize()}));
    s.set("disk_hits", JsonValue::integer(engine.diskHits()));
    s.set("simulations", JsonValue::integer(engine.simulations()));
    s.set("source", JsonValue::string("local"));
    s.set("timing_runs", JsonValue::integer(engine.timingRuns()));
    JsonValue o = JsonValue::object();
    o.set("dcgsim_summary", std::move(s));
    std::cerr << o.dump() << '\n';
}

/**
 * Build the client for --server: jobs are pipelined over one
 * persistent multiplexed link per endpoint — ring-routed to each
 * key's owner when several endpoints are given.
 */
serve::ClusterClient
makeServerClient(const Options &opts)
{
    std::vector<serve::Endpoint> eps;
    std::string err;
    if (!serve::parseEndpoints(opts.getString("server", ""), eps, err))
        fatal("invalid --server list: ", err);
    const auto replicas = static_cast<unsigned>(
        opts.getInt("replicas", 1));
    const auto timeout_ms = static_cast<unsigned>(
        opts.getInt("server-timeout-ms", 0));
    return serve::ClusterClient(std::move(eps), replicas, timeout_ms);
}

void
printServerSummary(std::size_t jobs, serve::ClusterClient &client)
{
    JsonValue stats = client.stats();
    JsonValue s = JsonValue::object();
    s.set("jobs", JsonValue::integer(std::uint64_t{jobs}));
    s.set("cache_hits", stats.get("mem_hits"));
    s.set("cache_misses", stats.get("mem_misses"));
    s.set("cache_size", stats.get("cache_entries"));
    s.set("disk_hits", stats.get("disk_hits"));
    s.set("simulations", stats.get("simulations"));
    if (client.failovers() || client.readRepairs()) {
        s.set("client_failovers", JsonValue::integer(client.failovers()));
        s.set("client_read_repairs", JsonValue::integer(client.readRepairs()));
    }
    s.set("source", JsonValue::string("server"));
    JsonValue o = JsonValue::object();
    o.set("dcgsim_summary", std::move(s));
    std::cerr << o.dump() << '\n';
}

/**
 * --list-schemes: the registry catalog. The bare flag prints the
 * human-readable table (name, description, config knobs);
 * --list-schemes=names prints one bare name per line for scripting
 * (the CI scheme-matrix iterates it).
 */
void
printSchemeCatalog(std::ostream &os, bool names_only)
{
    if (names_only) {
        for (const std::string &name : gating::schemes().names())
            os << name << '\n';
        return;
    }
    for (const gating::SchemeInfo &info : gating::schemes().catalog()) {
        os << info.name << "\n  " << info.description << '\n';
        for (const gating::SchemeKnob &knob : info.knobs) {
            os << "    " << knob.name << " (default "
               << knob.defaultValue << "): " << knob.description
               << '\n';
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv,
                 {"bench", "scheme", "insts", "warmup", "depth", "seed",
                  "gate-iq", "store-delay", "round-robin", "dump-stats",
                  "csv", "json", "jobs", "schema", "server",
                  "server-stats", "replicas", "server-timeout-ms",
                  "list-schemes", "join", "leave", "ring", "help"});

    if (opts.has("help")) {
        std::cout <<
            "dcgsim --bench=<name|all> [--scheme=" +
            gating::schemes().joined() + "]\n"
            "       [--list-schemes[=names] (print the scheme catalog"
            " and exit)]\n"
            "       [--insts=N] [--warmup=N] [--depth=8|20] [--seed=N]\n"
            "       [--gate-iq] [--store-delay] [--round-robin]\n"
            "       [--dump-stats] [--csv=path] [--json=path]\n"
            "       [--jobs=N (parallel workers; default DCG_JOBS or"
            " all cores)]\n"
            "       [--server=HOST:PORT[,HOST:PORT...] (pipeline jobs"
            " over a\n"
            "        persistent multiplexed link to a dcgserved"
            " instance, or\n"
            "        ring-routed across a sharded cluster of them)]\n"
            "       [--replicas=K (match the cluster's --replicas;"
            " enables\n"
            "        client-side failover across each key's holders)]\n"
            "       [--server-timeout-ms=N (per-request deadline on"
            " the link;\n"
            "        also bounds connect)]\n"
            "       [--server-stats (print the server's stats JSON and"
            " exit)]\n"
            "       [--join=HOST:PORT (ask the first --server node to"
            " add a\n"
            "        node to the ring; prints the response and"
            " exits)]\n"
            "       [--leave=HOST:PORT (ask the first --server node to"
            " remove\n"
            "        a node from the ring; prints the response and"
            " exits)]\n"
            "       [--ring (print the first --server node's epoch,"
            " members\n"
            "        and rebalance counters and exit)]\n"
            "       [--schema (print the JSON result schema and"
            " exit)]\n";
        return 0;
    }

    if (opts.has("list-schemes")) {
        printSchemeCatalog(std::cout,
                           opts.getString("list-schemes", "") ==
                           "names");
        return 0;
    }

    if (opts.getBool("schema", false)) {
        writeResultsSchemaJson(std::cout);
        return 0;
    }

    if (opts.getBool("server-stats", false)) {
        if (!opts.has("server"))
            fatal("--server-stats requires --server=HOST:PORT[,...]");
        serve::ClusterClient client = makeServerClient(opts);
        std::cout << client.stats().dump() << '\n';
        return 0;
    }

    // Admin modes: one membership verb against the first --server
    // node, response printed verbatim. Exit status reflects the
    // server's verdict so scripts can gate on it.
    if (opts.has("join") || opts.has("leave") ||
        opts.getBool("ring", false)) {
        if (!opts.has("server"))
            fatal("--join/--leave/--ring require"
                  " --server=HOST:PORT[,...] (the node coordinating"
                  " the change)");
        serve::ClusterClient client = makeServerClient(opts);
        JsonValue resp;
        if (opts.has("join"))
            resp = client.join(opts.getString("join", ""));
        else if (opts.has("leave"))
            resp = client.leave(opts.getString("leave", ""));
        else
            resp = client.ringInfo();
        std::cout << resp.dump() << '\n';
        return resp.get("ok").asBool(false) ? 0 : 1;
    }

    const std::string bench = opts.getString("bench", "gzip");
    const auto insts = static_cast<std::uint64_t>(
        opts.getInt("insts",
                    static_cast<std::int64_t>(defaultBenchInstructions())));
    const auto warmup = static_cast<std::uint64_t>(
        opts.getInt("warmup",
                    static_cast<std::int64_t>(defaultBenchWarmup())));

    // One JobSpec per benchmark: the shared, network-portable job
    // description both the local and the --server path expand through
    // the identical presets code (the byte-identity contract).
    serve::JobSpec proto;
    proto.scheme = opts.getString("scheme", "dcg");
    proto.depth = static_cast<unsigned>(opts.getInt("depth", 8));
    proto.insts = insts;
    proto.warmup = warmup;
    proto.seed = static_cast<std::uint64_t>(opts.getInt("seed", 1));
    proto.gateIq = opts.getBool("gate-iq", false);
    proto.storeDelay = opts.getBool("store-delay", false);
    proto.roundRobin = opts.getBool("round-robin", false);

    std::vector<std::string> benches;
    if (bench == "all")
        benches = allSpecNames();
    else
        benches.push_back(bench);

    std::vector<serve::JobSpec> specs;
    specs.reserve(benches.size());
    for (const std::string &b : benches) {
        serve::JobSpec s = proto;
        s.bench = b;
        std::string err;
        if (!s.validate(err))
            fatal(err);
        specs.push_back(std::move(s));
    }

    std::vector<RunResult> results;
    if (opts.getBool("dump-stats", false)) {
        if (opts.has("server"))
            fatal("--dump-stats needs the live statistics registry and"
                  " cannot run remotely; drop --server");
        // Dumping needs the live statistics registry, which only the
        // Simulator holds — run serially outside the engine. Matches
        // the engine's numbers via the same per-job seed derivation.
        for (const serve::JobSpec &s : specs) {
            exp::Job job = s.toJob();
            SimConfig seeded = job.config;
            seeded.seed = exp::deriveJobSeed(job);
            Simulator sim(job.profile, seeded);
            sim.run(insts, warmup);
            results.push_back(sim.result());
            std::cout << "---- statistics: " << job.profile.name
                      << " ----\n";
            sim.dumpStats(std::cout);
        }
    } else if (opts.has("server")) {
        serve::ClusterClient client = makeServerClient(opts);
        client.connect();
        results = client.runJobs(specs);
        printServerSummary(specs.size(), client);
    } else {
        exp::Engine engine(resolveJobsOption(opts));
        std::vector<exp::Job> jobs;
        jobs.reserve(specs.size());
        for (const serve::JobSpec &s : specs)
            jobs.push_back(s.toJob());
        results = engine.run(jobs);
        printSummary(specs.size(), engine);
    }

    TextTable t({"bench", "scheme", "IPC", "power (W)", "E/inst (pJ)",
                 "bpred%", "L1D miss%"});
    for (const RunResult &r : results) {
        t.addRow({r.benchmark, r.scheme, TextTable::num(r.ipc, 3),
                  TextTable::num(r.avgPowerW, 2),
                  TextTable::num(r.energyPerInstPJ(), 0),
                  TextTable::pct(r.branchAccuracy),
                  TextTable::pct(r.l1dMissRate)});
    }
    t.print(std::cout);

    if (opts.has("csv"))
        writeResultsCsvFile(results, opts.getString("csv", ""));
    if (opts.has("json"))
        writeResultsJsonFile(results, opts.getString("json", ""));
    return 0;
}
