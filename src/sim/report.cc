#include "sim/report.hh"

#include <fstream>
#include <iomanip>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>

#include "common/log.hh"
#include "gating/registry.hh"
#include "power/model.hh"

namespace dcg {

namespace {

/** One key of a fixed-key number object, bound to its RunResult field. */
struct GroupKey
{
    const char *key;
    double RunResult::*field;
};

constexpr GroupKey kGroupPJ[] = {
    {"int_units", &RunResult::intUnitsPJ},
    {"fp_units", &RunResult::fpUnitsPJ},
    {"latches", &RunResult::latchPJ},
    {"dcache", &RunResult::dcachePJ},
    {"result_bus", &RunResult::resultBusPJ},
};

constexpr GroupKey kUtilization[] = {
    {"int_units", &RunResult::intUnitUtil},
    {"fp_units", &RunResult::fpUnitUtil},
    {"latches", &RunResult::latchUtil},
    {"dcache_ports", &RunResult::dcachePortUtil},
    {"result_bus", &RunResult::resultBusUtil},
};

/** Append without set()'s duplicate scan: the writer's keys are unique. */
void
add(JsonValue &o, std::string key, JsonValue v)
{
    o.members().emplace_back(std::move(key), std::move(v));
}

template <std::size_t N>
JsonValue
groupToJson(const RunResult &r, const GroupKey (&keys)[N])
{
    JsonValue o = JsonValue::object();
    for (const GroupKey &k : keys)
        add(o, k.key, JsonValue::number(r.*k.field));
    return o;
}

bool
fail(std::string &err, const std::string &what)
{
    err = "result JSON: " + what;
    return false;
}

bool
readString(const JsonValue &v, const std::string &key, std::string &out,
           std::string &err)
{
    if (!v.isString())
        return fail(err, "'" + key + "' must be a string");
    out = v.asString();
    return true;
}

bool
readNumber(const JsonValue &v, const std::string &key, double &out,
           std::string &err)
{
    if (!v.isNumber())
        return fail(err, "'" + key + "' must be a number");
    out = v.asNumber();
    return true;
}

/** Counts take only non-negative integer tokens that fit uint64_t. */
bool
readCount(const JsonValue &v, const std::string &key, std::uint64_t &out,
          std::string &err)
{
    if (!v.toU64(out))
        return fail(err, "'" + key +
                             "' must be a non-negative 64-bit integer");
    return true;
}

/**
 * Read a {"name": number, ...} object member by member; @p set stores
 * one value and returns false for a key it does not know, which is
 * reported as an unknown @p what.
 */
template <typename Setter>
bool
readNumberObject(const JsonValue &v, const std::string &key,
                 const char *what, std::string &err, const Setter &set)
{
    if (!v.isObject())
        return fail(err, "'" + key + "' must be an object");
    for (const auto &[name, value] : v.members()) {
        if (!value.isNumber())
            return fail(err, "'" + key + "." + name +
                                 "' must be a number");
        if (!set(name, value.asNumber()))
            return fail(err, std::string("unknown ") + what + " '" +
                                 name + "'");
    }
    return true;
}

template <std::size_t N>
bool
readGroup(const JsonValue &v, const std::string &key,
          const GroupKey (&keys)[N], const char *what, RunResult &r,
          std::string &err)
{
    return readNumberObject(
        v, key, what, err, [&](const std::string &name, double x) {
            for (const GroupKey &k : keys) {
                if (name == k.key) {
                    r.*k.field = x;
                    return true;
                }
            }
            return false;
        });
}

int
componentByName(const std::string &name)
{
    for (unsigned c = 0; c < kNumPowerComponents; ++c) {
        if (name == powerComponentName(static_cast<PowerComponent>(c)))
            return static_cast<int>(c);
    }
    return -1;
}

} // namespace

JsonValue
resultToJson(const RunResult &r)
{
    JsonValue o = JsonValue::object();
    add(o, "benchmark", JsonValue::string(r.benchmark));
    add(o, "scheme", JsonValue::string(r.scheme));
    add(o, "instructions", JsonValue::integer(r.instructions));
    add(o, "cycles", JsonValue::integer(r.cycles));
    add(o, "ipc", JsonValue::number(r.ipc));
    add(o, "total_energy_pj", JsonValue::number(r.totalEnergyPJ));
    add(o, "avg_power_w", JsonValue::number(r.avgPowerW));
    add(o, "energy_per_inst_pj", JsonValue::number(r.energyPerInstPJ()));
    add(o, "branch_accuracy", JsonValue::number(r.branchAccuracy));
    add(o, "l1d_miss_rate", JsonValue::number(r.l1dMissRate));
    add(o, "group_pj", groupToJson(r, kGroupPJ));
    add(o, "utilization", groupToJson(r, kUtilization));
    JsonValue components = JsonValue::object();
    for (unsigned c = 0; c < kNumPowerComponents; ++c)
        add(components, powerComponentName(static_cast<PowerComponent>(c)),
            JsonValue::number(r.componentPJ[c]));
    add(o, "components_pj", std::move(components));
    if (!r.extraStats.empty()) {
        JsonValue extra = JsonValue::object();
        for (const auto &[name, value] : r.extraStats)
            add(extra, name, JsonValue::number(value));
        add(o, "extra", std::move(extra));
    }
    return o;
}

bool
resultFromJson(const JsonValue &v, RunResult &out, std::string &err)
{
    if (!v.isObject())
        return fail(err, "a result must be an object");
    RunResult r;
    for (const auto &[key, value] : v.members()) {
        bool ok = true;
        if (key == "benchmark") {
            ok = readString(value, key, r.benchmark, err);
        } else if (key == "scheme") {
            ok = readString(value, key, r.scheme, err);
        } else if (key == "instructions") {
            ok = readCount(value, key, r.instructions, err);
        } else if (key == "cycles") {
            ok = readCount(value, key, r.cycles, err);
        } else if (key == "ipc") {
            ok = readNumber(value, key, r.ipc, err);
        } else if (key == "total_energy_pj") {
            ok = readNumber(value, key, r.totalEnergyPJ, err);
        } else if (key == "avg_power_w") {
            ok = readNumber(value, key, r.avgPowerW, err);
        } else if (key == "energy_per_inst_pj") {
            double derived = 0.0;  // checked, then recomputed on demand
            ok = readNumber(value, key, derived, err);
        } else if (key == "branch_accuracy") {
            ok = readNumber(value, key, r.branchAccuracy, err);
        } else if (key == "l1d_miss_rate") {
            ok = readNumber(value, key, r.l1dMissRate, err);
        } else if (key == "group_pj") {
            ok = readGroup(value, key, kGroupPJ, "group", r, err);
        } else if (key == "utilization") {
            ok = readGroup(value, key, kUtilization, "utilisation", r,
                           err);
        } else if (key == "components_pj") {
            ok = readNumberObject(
                value, key, "component", err,
                [&](const std::string &name, double x) {
                    const int c = componentByName(name);
                    if (c >= 0)
                        r.componentPJ[static_cast<unsigned>(c)] = x;
                    return c >= 0;
                });
        } else if (key == "extra") {
            ok = readNumberObject(value, key, "extra", err,
                                  [&](const std::string &name, double x) {
                                      r.extraStats[name] = x;
                                      return true;
                                  });
        } else {
            return fail(err, "unknown field '" + key + "'");
        }
        if (!ok)
            return false;
    }
    out = std::move(r);
    return true;
}

JsonValue
resultsToJson(const std::vector<RunResult> &results)
{
    JsonValue arr = JsonValue::array();
    arr.items().reserve(results.size());
    for (const RunResult &r : results)
        arr.push(resultToJson(r));
    return arr;
}

bool
resultsFromJson(const JsonValue &v, std::vector<RunResult> &out,
                std::string &err)
{
    if (!v.isArray())
        return fail(err, "results must be an array");
    std::vector<RunResult> results(v.items().size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!resultFromJson(v.items()[i], results[i], err))
            return false;
    }
    out = std::move(results);
    return true;
}

void
writeResultsCsv(const std::vector<RunResult> &results, std::ostream &os)
{
    os << "benchmark,scheme,instructions,cycles,ipc,total_energy_pj,"
          "avg_power_w,energy_per_inst_pj,int_units_pj,fp_units_pj,"
          "latch_pj,dcache_pj,result_bus_pj,int_unit_util,fp_unit_util,"
          "latch_util,dcache_port_util,result_bus_util,branch_accuracy,"
          "l1d_miss_rate";
    for (unsigned c = 0; c < kNumPowerComponents; ++c)
        os << ",pj_" << powerComponentName(static_cast<PowerComponent>(c));
    os << '\n';

    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    for (const RunResult &r : results) {
        os << r.benchmark << ',' << r.scheme << ',' << r.instructions
           << ',' << r.cycles << ',' << r.ipc << ',' << r.totalEnergyPJ
           << ',' << r.avgPowerW << ',' << r.energyPerInstPJ() << ','
           << r.intUnitsPJ << ',' << r.fpUnitsPJ << ',' << r.latchPJ
           << ',' << r.dcachePJ << ',' << r.resultBusPJ << ','
           << r.intUnitUtil << ',' << r.fpUnitUtil << ',' << r.latchUtil
           << ',' << r.dcachePortUtil << ',' << r.resultBusUtil << ','
           << r.branchAccuracy << ',' << r.l1dMissRate;
        for (unsigned c = 0; c < kNumPowerComponents; ++c)
            os << ',' << r.componentPJ[c];
        os << '\n';
    }
}

void
writeResultsJson(const std::vector<RunResult> &results, std::ostream &os)
{
    // One result per entry: scalar members share its first line, and
    // each object member starts a line of its own.
    os << "[\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JsonValue o = resultToJson(results[i]);
        std::string line = "  {";
        bool first = true;
        for (const auto &[key, value] : o.members()) {
            if (!first)
                line += value.isObject() ? ",\n   " : ", ";
            first = false;
            line += JsonValue::encodeString(key);
            line += ": ";
            line += value.dump();
        }
        os << line << '}' << (i + 1 < results.size() ? "," : "") << '\n';
    }
    os << "]\n";
}

bool
tryReadResultsJson(std::istream &is, std::vector<RunResult> &out,
                   std::string *error)
{
    const std::string text{std::istreambuf_iterator<char>(is),
                           std::istreambuf_iterator<char>()};
    JsonValue v;
    std::string err;
    if (!JsonValue::parse(text, v, err))
        err = "result JSON: " + err;
    else if (resultsFromJson(v, out, err))
        return true;
    if (error)
        *error = err;
    return false;
}

std::vector<RunResult>
readResultsJson(std::istream &is)
{
    std::vector<RunResult> results;
    std::string error;
    if (!tryReadResultsJson(is, results, &error))
        fatal(error);
    return results;
}

void
writeResultsSchemaJson(std::ostream &os)
{
    os << "{\n"
          "  \"schema\": \"dcg.run_result\",\n"
          "  \"version\": 2,\n"
          "  \"fields\": [\n"
          "    {\"name\": \"benchmark\", \"type\": \"string\"},\n"
          "    {\"name\": \"scheme\", \"type\": \"string\","
          " \"values\": [";
    // The scheme enumeration is the live registry catalog, so the
    // schema can never fall behind a newly-registered scheme.
    bool first_scheme = true;
    for (const std::string &name : gating::schemes().names()) {
        os << (first_scheme ? "" : ", ") << JsonValue::encodeString(name);
        first_scheme = false;
    }
    os << "]},\n"
          "    {\"name\": \"instructions\", \"type\": \"integer\"},\n"
          "    {\"name\": \"cycles\", \"type\": \"integer\"},\n"
          "    {\"name\": \"ipc\", \"type\": \"number\"},\n"
          "    {\"name\": \"total_energy_pj\", \"type\": \"number\","
          " \"unit\": \"pJ\"},\n"
          "    {\"name\": \"avg_power_w\", \"type\": \"number\","
          " \"unit\": \"W\"},\n"
          "    {\"name\": \"energy_per_inst_pj\", \"type\": \"number\","
          " \"unit\": \"pJ\"},\n"
          "    {\"name\": \"branch_accuracy\", \"type\": \"number\","
          " \"unit\": \"fraction\"},\n"
          "    {\"name\": \"l1d_miss_rate\", \"type\": \"number\","
          " \"unit\": \"fraction\"},\n"
          "    {\"name\": \"group_pj\", \"type\": \"object\","
          " \"unit\": \"pJ\", \"keys\": [\"int_units\", \"fp_units\","
          " \"latches\", \"dcache\", \"result_bus\"]},\n"
          "    {\"name\": \"utilization\", \"type\": \"object\","
          " \"unit\": \"fraction\", \"keys\": [\"int_units\","
          " \"fp_units\", \"latches\", \"dcache_ports\","
          " \"result_bus\"]},\n"
          "    {\"name\": \"components_pj\", \"type\": \"object\","
          " \"unit\": \"pJ\", \"keys\": [";
    for (unsigned c = 0; c < kNumPowerComponents; ++c) {
        os << (c ? ", " : "") << '"'
           << powerComponentName(static_cast<PowerComponent>(c)) << '"';
    }
    os << "]},\n"
          "    {\"name\": \"extra\", \"type\": \"object\","
          " \"optional\": true, \"description\":"
          " \"captured registry statistics, keyed by stat name\"}\n"
          "  ]\n"
          "}\n";
}

const std::vector<StatCatalogEntry> &
statRegistryCatalog()
{
    // Keep sorted by name. dcglint's stat-report check requires every
    // literal registration site in src/ to have its name listed here;
    // the report_test cross-checks that the catalog exactly matches
    // the union of stats the gating schemes register, so
    // dynamically-composed names (per-cache-instance counters, per-FU
    // toggle counters) are enumerated concretely.
    static const std::vector<StatCatalogEntry> catalog = {
        {"bpred.btb_misses", "taken predictions without a BTB target"},
        {"bpred.correct", "fully correct predictions"},
        {"bpred.dir_mispredicts", "wrong taken/not-taken direction"},
        {"bpred.lookups", "branch predictions made"},
        {"cgooo.active_blocks", "issue-queue block-cycles clocked"},
        {"cgooo.gated_blocks", "issue-queue block-cycles clock-gated"},
        {"core.commit_latency", "issue-to-commit latency (cycles)"},
        {"core.commit_wait_complete", "commits stalled on in-flight head"},
        {"core.commit_wait_issue", "commits stalled on unissued head"},
        {"core.commit_wait_storebuf", "commits stalled on store buffer"},
        {"core.committed", "committed instructions"},
        {"core.cycles", "simulated cycles"},
        {"core.fetch_stall_cycles", "cycles fetch produced nothing"},
        {"core.fetched_per_cycle", "mean fetch bandwidth"},
        {"core.ipc", "committed IPC"},
        {"core.issue_wait", "mean window wait before issue (cycles)"},
        {"core.issued", "issued instructions"},
        {"core.lsq_full_stalls", "rename stalls on a full LSQ"},
        {"core.mispredicts", "branch mispredictions"},
        {"core.rob_full_stalls", "rename stalls on a full ROB"},
        {"core.skipped_cycles", "idle cycles advanced in bulk by skip-ahead"},
        {"core.window_occupancy", "mean issue-window occupancy"},
        {"dcache.accesses", "L1D cache accesses"},
        {"dcache.misses", "L1D cache misses"},
        {"dcache.mshr_stalls", "L1D stalls on a full MSHR"},
        {"dcache.writebacks", "L1D dirty-line writebacks"},
        {"dcg.gated_dcache_ports", "D-cache port-cycles clock-gated"},
        {"dcg.gated_fu_cycles", "FU instance-cycles clock-gated"},
        {"dcg.gated_latch_slots", "latch slot-cycles clock-gated"},
        {"dcg.gated_result_buses", "result-bus cycles clock-gated"},
        {"dcg.toggles.FpAlu", "FP-ALU gate-control transitions"},
        {"dcg.toggles.FpMulDiv", "FP mul/div gate-control transitions"},
        {"dcg.toggles.IntAlu", "integer-ALU gate-control transitions"},
        {"dcg.toggles.IntMulDiv", "int mul/div gate-control transitions"},
        {"ddcg.clocked_latch_slots", "latch slot-cycles left clocked"},
        {"ddcg.gated_latch_slots", "latch slot-cycles clock-gated"},
        {"icache.accesses", "L1I cache accesses"},
        {"icache.misses", "L1I cache misses"},
        {"icache.mshr_stalls", "L1I stalls on a full MSHR"},
        {"icache.writebacks", "L1I dirty-line writebacks"},
        {"l2.accesses", "L2 cache accesses"},
        {"l2.misses", "L2 cache misses"},
        {"l2.mshr_stalls", "L2 stalls on a full MSHR"},
        {"l2.writebacks", "L2 dirty-line writebacks"},
        {"mem.accesses", "main memory accesses"},
        {"plb.mode_transitions", "issue-mode changes"},
        {"plb.windows_4wide", "windows spent in 4-wide mode"},
        {"plb.windows_6wide", "windows spent in 6-wide mode"},
        {"plb.windows_8wide", "windows spent in 8-wide mode"},
        {"power.avg_watts", "average power (W)"},
        {"power.total_energy_pj", "total dynamic energy (pJ)"},
    };
    return catalog;
}

void
writeResultsCsvFile(const std::vector<RunResult> &results,
                    const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    writeResultsCsv(results, os);
}

void
writeResultsJsonFile(const std::vector<RunResult> &results,
                     const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    writeResultsJson(results, os);
}

std::vector<RunResult>
readResultsJsonFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '", path, "' for reading");
    return readResultsJson(is);
}

} // namespace dcg
