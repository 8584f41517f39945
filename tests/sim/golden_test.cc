/**
 * @file
 * Byte-identity golden corpus for the simulator.
 *
 * Every registered gating scheme runs three canonical presets at two
 * trace lengths; the full report (statistics dump + results JSON) must
 * match the checked-in corpus under tests/sim/golden/ byte for byte.
 * This pins the fast-core machinery (SoA window, event-driven wakeup,
 * flat counters, idle skip-ahead) to exact output: any change that
 * perturbs simulation results — however slightly — fails here before
 * it can silently shift the paper's figures.
 *
 * Regeneration is deliberately manual:
 *
 *   ./build/tests/dcg_golden_tests --update-golden
 *
 * rewrites the corpus in the source tree. There is no environment
 * fallback; a stale corpus must be updated by an explicit, reviewable
 * action, never by CI side effects.
 */

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "gating/registry.hh"
#include "sim/presets.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "trace/spec2000.hh"

namespace {

using namespace dcg;

/** Set by main() when invoked with --update-golden. */
bool updateGolden = false;

struct GoldenCase
{
    const char *preset;   ///< "table1" or "deep"
    const char *profile;  ///< SPEC profile name
    std::uint64_t insts;
    std::uint64_t warmup;
};

/** Three presets x two trace lengths (x every scheme = the corpus). */
constexpr GoldenCase kCases[] = {
    {"table1", "gzip", 3000, 1000},
    {"table1", "gzip", 12000, 1000},
    {"deep", "gcc", 3000, 1000},
    {"deep", "gcc", 12000, 1000},
    {"table1", "mcf", 3000, 1000},
    {"table1", "mcf", 12000, 1000},
};

std::filesystem::path
goldenDir()
{
    return std::filesystem::path(DCG_SIM_GOLDEN_DIR);
}

std::string
fileName(const std::string &scheme, const GoldenCase &c)
{
    std::string s = scheme;
    for (char &ch : s)
        if (ch == '-')
            ch = '_';
    return s + "_" + c.preset + "_" + c.profile + "_" +
           std::to_string(c.insts) + ".txt";
}

/** The bytes under test: full stats dump + the results-JSON record. */
std::string
reportBytes(const std::string &scheme, const GoldenCase &c)
{
    SimConfig cfg = std::string_view(c.preset) == "deep"
        ? deepPipelineConfig(scheme) : table1Config(scheme);
    cfg.seed = 7;
    Simulator sim(profileByName(c.profile), cfg);
    sim.run(c.insts, c.warmup);
    std::ostringstream os;
    sim.dumpStats(os);
    writeResultsJson({sim.result()}, os);
    return os.str();
}

class GoldenReport : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenReport, MatchesCorpusByteForByte)
{
    const std::string &scheme = GetParam();
    for (const GoldenCase &c : kCases) {
        const std::string actual = reportBytes(scheme, c);
        const std::filesystem::path path = goldenDir() / fileName(scheme, c);

        if (updateGolden) {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << actual;
            ASSERT_TRUE(out.good()) << "cannot write " << path;
            continue;
        }

        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good())
            << "missing golden file " << path
            << " — regenerate with: dcg_golden_tests --update-golden";
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string expected = buf.str();

        if (actual == expected)
            continue;
        // Report the first differing offset: far more useful than two
        // multi-kilobyte blobs in the failure message.
        std::size_t off = 0;
        while (off < actual.size() && off < expected.size() &&
               actual[off] == expected[off])
            ++off;
        const std::size_t ctx = off < 40 ? 0 : off - 40;
        ADD_FAILURE() << "golden mismatch for " << path
                      << "\n  sizes: expected " << expected.size()
                      << " actual " << actual.size()
                      << "\n  first difference at byte " << off
                      << "\n  expected ..."
                      << expected.substr(ctx, 80)
                      << "\n  actual   ..."
                      << actual.substr(ctx, 80);
    }
}

std::string
sanitize(const ::testing::TestParamInfo<std::string> &info)
{
    std::string s = info.param;
    for (char &c : s)
        if (c == '-')
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredSchemes, GoldenReport,
                         ::testing::ValuesIn(gating::schemes().names()),
                         sanitize);

/**
 * The corpus contains no strays: exactly one file per registered
 * scheme x case. Catches a renamed scheme leaving its old goldens
 * behind (which would otherwise rot silently).
 */
TEST(GoldenCorpus, HasExactlyTheExpectedFiles)
{
    if (updateGolden)
        GTEST_SKIP() << "corpus being regenerated";
    std::vector<std::string> expected;
    for (const std::string &scheme : gating::schemes().names())
        for (const GoldenCase &c : kCases)
            expected.push_back(fileName(scheme, c));
    std::vector<std::string> present;
    for (const auto &e : std::filesystem::directory_iterator(goldenDir()))
        if (e.path().extension() == ".txt")
            present.push_back(e.path().filename().string());
    std::sort(expected.begin(), expected.end());
    std::sort(present.begin(), present.end());
    EXPECT_EQ(expected, present);
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--update-golden") {
            updateGolden = true;
            // Hide the flag from gtest's own flag parsing.
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            break;
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
