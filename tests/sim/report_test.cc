/** Tests for the CSV/JSON result writers. */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "gating/registry.hh"
#include "sim/presets.hh"
#include "sim/report.hh"
#include "trace/spec2000.hh"

using namespace dcg;

namespace {

RunResult
sample(const std::string &bench, const std::string &scheme)
{
    RunResult r;
    r.benchmark = bench;
    r.scheme = scheme;
    r.instructions = 1000;
    r.cycles = 400;
    r.ipc = 2.5;
    r.totalEnergyPJ = 12345.0;
    r.avgPowerW = 30.0;
    r.componentPJ[0] = 111.0;
    r.branchAccuracy = 0.9;
    return r;
}

} // namespace

TEST(Report, CsvHasHeaderAndRows)
{
    std::ostringstream os;
    writeResultsCsv({sample("gzip", "dcg"), sample("mcf", "base")}, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("benchmark,scheme,"), std::string::npos);
    EXPECT_NE(out.find("gzip,dcg,1000,400,2.5"), std::string::npos);
    EXPECT_NE(out.find("mcf,base"), std::string::npos);
    // One header + two data rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(Report, CsvIncludesComponentColumns)
{
    std::ostringstream os;
    writeResultsCsv({sample("gzip", "dcg")}, os);
    EXPECT_NE(os.str().find("pj_latches"), std::string::npos);
    EXPECT_NE(os.str().find("pj_result_bus"), std::string::npos);
}

TEST(Report, JsonIsWellFormedArray)
{
    std::ostringstream os;
    writeResultsJson({sample("gzip", "dcg"), sample("mcf", "base")}, os);
    const std::string out = os.str();
    EXPECT_EQ(out.front(), '[');
    EXPECT_NE(out.find("\"benchmark\": \"gzip\""), std::string::npos);
    EXPECT_NE(out.find("\"components_pj\""), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check).
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    EXPECT_EQ(std::count(out.begin(), out.end(), '['),
              std::count(out.begin(), out.end(), ']'));
}

TEST(Report, JsonEscapesSpecialCharacters)
{
    std::ostringstream os;
    writeResultsJson({sample("we\"ird\\name", "dcg")}, os);
    EXPECT_NE(os.str().find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(Report, EmptyResultsProduceHeaderOnly)
{
    std::ostringstream csv, json;
    writeResultsCsv({}, csv);
    writeResultsJson({}, json);
    const std::string csv_text = csv.str();
    EXPECT_EQ(std::count(csv_text.begin(), csv_text.end(), '\n'), 1);
    EXPECT_EQ(json.str(), "[\n]\n");
}

TEST(Report, FileWritersRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/dcg_report.csv";
    writeResultsCsvFile({sample("gzip", "dcg")}, path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find("benchmark"), std::string::npos);
}

TEST(Report, UnwritablePathIsFatal)
{
    EXPECT_EXIT(writeResultsCsvFile({}, "/nonexistent-dir/x.csv"),
                ::testing::ExitedWithCode(1), "cannot open");
}

namespace {

/** A result with every field set to a non-representable decimal. */
RunResult
fullSample()
{
    RunResult r = sample("mcf", "plb-ext");
    r.ipc = 1.0 / 3.0;
    r.totalEnergyPJ = 2.0 / 7.0;
    r.avgPowerW = 29.123456789012345;
    for (unsigned c = 0; c < kNumPowerComponents; ++c)
        r.componentPJ[c] = 1.0 / (c + 3.0);
    r.intUnitsPJ = 0.1;
    r.fpUnitsPJ = 0.2;
    r.latchPJ = 0.3;
    r.dcachePJ = 0.4;
    r.resultBusPJ = 0.5;
    r.intUnitUtil = 1.0 / 9.0;
    r.fpUnitUtil = 1.0 / 11.0;
    r.latchUtil = 1.0 / 13.0;
    r.dcachePortUtil = 1.0 / 17.0;
    r.resultBusUtil = 1.0 / 19.0;
    // The writer's %.17g form of a subnormal must read back exactly.
    r.l1dMissRate = std::numeric_limits<double>::denorm_min();
    r.branchAccuracy = 0.937;
    r.extraStats["plb.mode_transitions"] = 42.0;
    r.extraStats["dcg.toggles.IntAlu"] = 1.0 / 23.0;
    return r;
}

void
expectBitIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.totalEnergyPJ, b.totalEnergyPJ);
    EXPECT_EQ(a.avgPowerW, b.avgPowerW);
    for (unsigned c = 0; c < kNumPowerComponents; ++c)
        EXPECT_EQ(a.componentPJ[c], b.componentPJ[c]);
    EXPECT_EQ(a.intUnitsPJ, b.intUnitsPJ);
    EXPECT_EQ(a.fpUnitsPJ, b.fpUnitsPJ);
    EXPECT_EQ(a.latchPJ, b.latchPJ);
    EXPECT_EQ(a.dcachePJ, b.dcachePJ);
    EXPECT_EQ(a.resultBusPJ, b.resultBusPJ);
    EXPECT_EQ(a.intUnitUtil, b.intUnitUtil);
    EXPECT_EQ(a.fpUnitUtil, b.fpUnitUtil);
    EXPECT_EQ(a.latchUtil, b.latchUtil);
    EXPECT_EQ(a.dcachePortUtil, b.dcachePortUtil);
    EXPECT_EQ(a.resultBusUtil, b.resultBusUtil);
    EXPECT_EQ(a.branchAccuracy, b.branchAccuracy);
    EXPECT_EQ(a.l1dMissRate, b.l1dMissRate);
    EXPECT_EQ(a.extraStats, b.extraStats);
}

} // namespace

TEST(Report, JsonRoundTripsBitExactly)
{
    const std::vector<RunResult> in{fullSample(), sample("gzip", "dcg")};
    std::stringstream ss;
    writeResultsJson(in, ss);
    const std::vector<RunResult> out = readResultsJson(ss);
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        expectBitIdentical(in[i], out[i]);
}

TEST(Report, JsonFileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/dcg_report.json";
    writeResultsJsonFile({fullSample()}, path);
    const auto out = readResultsJsonFile(path);
    ASSERT_EQ(out.size(), 1u);
    expectBitIdentical(fullSample(), out[0]);
}

TEST(Report, ReadRejectsMalformedJson)
{
    std::istringstream truncated("[\n  {\"benchmark\": \"gzip\"");
    EXPECT_EXIT(readResultsJson(truncated),
                ::testing::ExitedWithCode(1), "result JSON");
}

namespace {

/** The reader's error for @p text, or "" when it reads. */
std::string
readError(const std::string &text)
{
    std::istringstream is(text);
    std::vector<RunResult> out;
    std::string err;
    return tryReadResultsJson(is, out, &err) ? "" : err;
}

/** One result object holding only @p members, in an array. */
std::string
oneResult(const std::string &members)
{
    return "[{\"benchmark\": \"gzip\", " + members + "}]";
}

} // namespace

TEST(Report, ReadAcceptsOnlyUint64Counts)
{
    for (const char *field : {"instructions", "cycles"}) {
        const std::string key = std::string("\"") + field + "\": ";
        // A malformed token, a negative, a fraction, a value past
        // uint64_t, and a string.
        for (const char *bad : {"30-2", "-5", "3.5", "1e30",
                                "18446744073709551616", "\"7\""}) {
            const std::string text = oneResult(key + bad);
            EXPECT_EQ(readError(text).rfind("result JSON: ", 0), 0u)
                << text;
        }
        EXPECT_EQ(readError(oneResult(key + "18446744073709551615")), "");
    }
}

TEST(Report, ReadRejectsWrongKindsAndUnknownKeys)
{
    for (const char *members :
         {"\"scheme\": 3", "\"ipc\": \"fast\"", "\"ipc\": null",
          "\"group_pj\": []", "\"group_pj\": {\"latches\": true}",
          "\"extra\": {\"core.ipc\": \"1\"}", "\"speed\": 1",
          "\"group_pj\": {\"l3\": 1}",
          "\"utilization\": {\"dcache\": 1}",
          "\"components_pj\": {\"warp_drive\": 1}"}) {
        const std::string text = oneResult(members);
        EXPECT_EQ(readError(text).rfind("result JSON: ", 0), 0u) << text;
    }
    EXPECT_NE(readError("{}").find("result JSON: "), std::string::npos);
    EXPECT_NE(readError("[1]").find("result JSON: "), std::string::npos);
}

TEST(Report, ReadRejectsTrailingBytes)
{
    std::ostringstream os;
    writeResultsJson({sample("gzip", "dcg")}, os);
    EXPECT_EQ(readError(os.str()), "");
    EXPECT_EQ(readError(os.str() + "x").rfind("result JSON: ", 0), 0u);
    EXPECT_EQ(readError(os.str() + "[]").rfind("result JSON: ", 0), 0u);
}

TEST(Report, ReadKeepsDefaultsForAbsentFields)
{
    std::istringstream is(oneResult("\"cycles\": 7"));
    const std::vector<RunResult> out = readResultsJson(is);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].benchmark, "gzip");
    EXPECT_EQ(out[0].scheme, "");
    EXPECT_EQ(out[0].cycles, 7u);
    EXPECT_EQ(out[0].instructions, 0u);
    EXPECT_EQ(out[0].ipc, 0.0);
    EXPECT_TRUE(out[0].extraStats.empty());
}

TEST(Report, SchemaListsAllFieldGroups)
{
    std::ostringstream os;
    writeResultsSchemaJson(os);
    const std::string s = os.str();
    for (const char *field :
         {"benchmark", "scheme", "instructions", "cycles", "ipc",
          "total_energy_pj", "avg_power_w", "group_pj", "utilization",
          "components_pj", "extra"})
        EXPECT_NE(s.find(std::string("\"name\": \"") + field + '"'),
                  std::string::npos) << field;
    // Every power component is enumerated in the schema.
    for (unsigned c = 0; c < kNumPowerComponents; ++c)
        EXPECT_NE(s.find(powerComponentName(
                      static_cast<PowerComponent>(c))),
                  std::string::npos);
}

TEST(Report, StatCatalogMatchesRegisteredStats)
{
    // The catalog in report.cc is the authoritative stat-name list
    // (dcglint checks registrations against it); this test closes the
    // loop in the other direction: the catalog must be exactly the
    // union of what the schemes actually register, so entries cannot
    // rot when a stat is renamed or removed.
    std::set<std::string> registered;
    for (const std::string &scheme : gating::schemes().names()) {
        Simulator sim(profileByName("gzip"), table1Config(scheme));
        std::ostringstream os;
        sim.dumpStats(os);
        std::istringstream is(os.str());
        std::string line;
        while (std::getline(is, line)) {
            const std::size_t sp = line.find(' ');
            if (sp != std::string::npos && sp > 0)
                registered.insert(line.substr(0, sp));
        }
    }

    std::set<std::string> catalog;
    for (const StatCatalogEntry &e : statRegistryCatalog()) {
        EXPECT_TRUE(catalog.insert(e.name).second)
            << "duplicate catalog entry: " << e.name;
    }
    EXPECT_EQ(registered, catalog);
}
