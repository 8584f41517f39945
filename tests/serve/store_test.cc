/**
 * Tests for the persistent ResultStore: bit-exact round-trips,
 * persistence across instances, corruption recovery (satellite:
 * truncated record -> miss -> re-simulate -> record repaired), and the
 * Engine integration (disk hits instead of simulations after restart).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <unistd.h>

#include "exp/engine.hh"
#include "serve/store.hh"
#include "sim/presets.hh"
#include "sim/report.hh"
#include "trace/spec2000.hh"

using namespace dcg;
using namespace dcg::exp;
using namespace dcg::serve;

namespace {

constexpr std::uint64_t kInsts = 2000;
constexpr std::uint64_t kWarmup = 500;

/** Fresh per-test directory under the build tree's temp space. */
std::string
freshDir(const std::string &tag)
{
    namespace fs = std::filesystem;
    const fs::path p = fs::temp_directory_path() /
        ("dcg_store_test_" + tag + "_" +
         std::to_string(::getpid()));
    fs::remove_all(p);
    return p.string();
}

Job
smallJob(const char *bench, const std::string &scheme)
{
    return makeJob(profileByName(bench), table1Config(scheme), kInsts,
                   kWarmup);
}

/** Bit-exactness via the canonical serialisation. */
std::string
asJson(const RunResult &r)
{
    std::ostringstream os;
    writeResultsJson({r}, os);
    return os.str();
}

} // namespace

TEST(ResultStore, PutGetRoundTripsBitExactly)
{
    const std::string dir = freshDir("roundtrip");
    ResultStore store(dir);
    EXPECT_EQ(store.entries(), 0u);

    Engine engine(1);
    const Job job = smallJob("gzip", "dcg");
    const RunResult r = engine.runOne(job);
    const std::string key = jobKey(job);

    RunResult out;
    EXPECT_FALSE(store.get(key, out));
    store.put(key, r);
    EXPECT_EQ(store.entries(), 1u);
    ASSERT_TRUE(store.get(key, out));
    EXPECT_EQ(asJson(r), asJson(out));
    EXPECT_EQ(store.corruptRecords(), 0u);

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, RecordsPersistAcrossInstances)
{
    const std::string dir = freshDir("persist");
    Engine engine(1);
    const Job job = smallJob("mcf", "base");
    const RunResult r = engine.runOne(job);
    const std::string key = jobKey(job);

    {
        ResultStore store(dir);
        store.put(key, r);
    }

    // A brand-new instance (a "restarted service") indexes and serves
    // the record written by the previous one.
    ResultStore reopened(dir);
    EXPECT_EQ(reopened.entries(), 1u);
    RunResult out;
    ASSERT_TRUE(reopened.get(key, out));
    EXPECT_EQ(asJson(r), asJson(out));

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, DistinctKeysGetDistinctRecords)
{
    const std::string dir = freshDir("distinct");
    ResultStore store(dir);
    Engine engine(2);
    const Job a = smallJob("gzip", "base");
    const Job b = smallJob("gzip", "dcg");
    ASSERT_NE(jobKey(a), jobKey(b));
    EXPECT_NE(store.recordPath(jobKey(a)), store.recordPath(jobKey(b)));

    store.put(jobKey(a), engine.runOne(a));
    store.put(jobKey(b), engine.runOne(b));
    EXPECT_EQ(store.entries(), 2u);

    RunResult out;
    ASSERT_TRUE(store.get(jobKey(a), out));
    EXPECT_EQ(out.scheme, "base");
    ASSERT_TRUE(store.get(jobKey(b), out));
    EXPECT_EQ(out.scheme, "dcg");

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, TruncatedRecordIsAMissAndGetsRepaired)
{
    const std::string dir = freshDir("truncated");
    ResultStore store(dir);
    Engine engine(1);
    const Job job = smallJob("equake", "dcg");
    const RunResult r = engine.runOne(job);
    const std::string key = jobKey(job);
    store.put(key, r);

    // Truncate the record mid-body, as a crash mid-write (without the
    // tmp+rename dance) would have left it.
    const std::string path = store.recordPath(key);
    {
        std::ifstream is(path);
        std::string all((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
        ASSERT_GT(all.size(), 40u);
        std::ofstream os(path, std::ios::trunc);
        os << all.substr(0, all.size() / 2);
    }

    RunResult out;
    EXPECT_FALSE(store.get(key, out));
    EXPECT_EQ(store.corruptRecords(), 1u);

    // put() repairs the damaged record in place.
    store.put(key, r);
    ASSERT_TRUE(store.get(key, out));
    EXPECT_EQ(asJson(r), asJson(out));
    EXPECT_EQ(store.corruptRecords(), 1u);

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, GarbageAndForeignRecordsAreMisses)
{
    const std::string dir = freshDir("garbage");
    ResultStore store(dir);
    Engine engine(1);
    const Job job = smallJob("gzip", "base");
    const std::string key = jobKey(job);

    // Unparseable header.
    {
        std::ofstream os(store.recordPath(key));
        os << "not json at all\n";
    }
    RunResult out;
    EXPECT_FALSE(store.get(key, out));
    EXPECT_EQ(store.corruptRecords(), 1u);

    // Valid header but for a *different* key — the shape a 128-bit
    // hash collision would take. The embedded key catches it.
    const RunResult r = engine.runOne(job);
    store.put("some other key entirely", r);
    {
        std::ifstream src(store.recordPath("some other key entirely"));
        std::ofstream dst(store.recordPath(key), std::ios::trunc);
        dst << src.rdbuf();
    }
    EXPECT_FALSE(store.get(key, out));
    EXPECT_EQ(store.corruptRecords(), 2u);

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, EngineServesWarmStoreWithoutSimulating)
{
    const std::string dir = freshDir("engine");
    const Job a = smallJob("gzip", "base");
    const Job b = smallJob("gzip", "dcg");

    // Cold engine: everything simulates, and lands in the store.
    std::vector<RunResult> first;
    {
        Engine engine(2);
        engine.attachStore(std::make_shared<ResultStore>(dir));
        first = engine.run({a, b});
        EXPECT_EQ(engine.simulations(), 2u);
        EXPECT_EQ(engine.diskHits(), 0u);
        EXPECT_EQ(engine.cacheMisses(), 2u);
    }

    // "Restarted" engine on the same directory: all memory misses are
    // answered by disk; zero simulations run.
    Engine warm(2);
    auto store = std::make_shared<ResultStore>(dir);
    EXPECT_EQ(store->entries(), 2u);
    warm.attachStore(store);
    RunOutcome outcome = RunOutcome::Simulated;
    const RunResult ra = warm.runOne(a, &outcome);
    EXPECT_EQ(outcome, RunOutcome::DiskHit);
    const RunResult rb = warm.runOne(b, &outcome);
    EXPECT_EQ(outcome, RunOutcome::DiskHit);
    EXPECT_EQ(warm.simulations(), 0u);
    EXPECT_EQ(warm.diskHits(), 2u);
    // Disk hits are still memory misses — the counter contract.
    EXPECT_EQ(warm.cacheMisses(), 2u);
    EXPECT_EQ(asJson(first[0]), asJson(ra));
    EXPECT_EQ(asJson(first[1]), asJson(rb));

    // Third access is now a pure memory hit.
    warm.runOne(a, &outcome);
    EXPECT_EQ(outcome, RunOutcome::MemHit);
    EXPECT_EQ(warm.cacheHits(), 1u);

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, EvictToDropsLeastRecentlyUsedFirst)
{
    const std::string dir = freshDir("lru");
    ResultStore store(dir);

    const Job a = smallJob("gzip", "base");
    const Job b = smallJob("gzip", "dcg");
    const Job c = smallJob("mcf", "dcg");
    Engine engine(1);
    store.put(jobKey(a), engine.runOne(a));
    store.put(jobKey(b), engine.runOne(b));
    store.put(jobKey(c), engine.runOne(c));
    ASSERT_EQ(store.entries(), 3u);
    const std::uint64_t full = store.bytes();
    ASSERT_GT(full, 0u);

    // Freshen 'a': the eviction victim must now be 'b', the LRU.
    RunResult out;
    ASSERT_TRUE(store.get(jobKey(a), out));

    EXPECT_EQ(store.evictTo(full - 1), 1u);
    EXPECT_EQ(store.entries(), 2u);
    EXPECT_EQ(store.evictedRecords(), 1u);
    EXPECT_FALSE(std::filesystem::exists(store.recordPath(jobKey(b))));
    EXPECT_TRUE(store.get(jobKey(a), out));
    EXPECT_TRUE(store.get(jobKey(c), out));
    EXPECT_FALSE(store.get(jobKey(b), out));

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, PutEnforcesBudgetButNeverEvictsTheNewRecord)
{
    const std::string dir = freshDir("budget");
    ResultStore store(dir);

    const Job a = smallJob("gzip", "base");
    const Job b = smallJob("gzip", "dcg");
    Engine engine(1);
    const RunResult ra = engine.runOne(a);
    const RunResult rb = engine.runOne(b);

    store.put(jobKey(a), ra);
    ASSERT_EQ(store.entries(), 1u);
    // Budget fits exactly one record: the next put must evict the old
    // record, not the one it just wrote.
    store.setBudgetBytes(store.bytes());
    EXPECT_EQ(store.budgetBytes(), store.bytes());
    store.put(jobKey(b), rb);

    EXPECT_EQ(store.entries(), 1u);
    RunResult out;
    EXPECT_TRUE(store.get(jobKey(b), out));
    EXPECT_FALSE(store.get(jobKey(a), out));
    EXPECT_GE(store.evictedRecords(), 1u);

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, CompactRemovesTmpLeftoversAndInvalidRecords)
{
    namespace fs = std::filesystem;
    const std::string dir = freshDir("compact");
    ResultStore store(dir);

    const Job a = smallJob("gzip", "base");
    Engine engine(1);
    store.put(jobKey(a), engine.runOne(a));
    ASSERT_EQ(store.entries(), 1u);

    // Plant an interrupted-write leftover and a record-shaped file
    // whose content does not validate.
    {
        std::ofstream tmp(fs::path(dir) /
                          "00112233445566778899aabbccddeeff.json.tmp.7");
        tmp << "half a reco";
    }
    {
        std::ofstream bogus(fs::path(dir) /
                            "ffeeddccbbaa99887766554433221100.json");
        bogus << "{\"dcg_store\": 1, \"key\": \"nonsense\"}\n[]\n";
    }

    const std::size_t removed = store.compact();
    EXPECT_EQ(removed, 2u);
    EXPECT_EQ(store.compactions(), 1u);
    EXPECT_EQ(store.entries(), 1u);
    EXPECT_FALSE(fs::exists(
        fs::path(dir) /
        "00112233445566778899aabbccddeeff.json.tmp.7"));
    EXPECT_FALSE(fs::exists(
        fs::path(dir) / "ffeeddccbbaa99887766554433221100.json"));

    // The valid record survives and still round-trips.
    RunResult out;
    EXPECT_TRUE(store.get(jobKey(a), out));

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, RestartSeedsEvictionOrderFromFileAges)
{
    namespace fs = std::filesystem;
    const std::string dir = freshDir("mtime");
    const Job a = smallJob("gzip", "base");
    const Job b = smallJob("gzip", "dcg");
    Engine engine(1);
    {
        ResultStore store(dir);
        store.put(jobKey(a), engine.runOne(a));
        store.put(jobKey(b), engine.runOne(b));
    }
    // Make 'a' unambiguously the older record.
    ResultStore probe(dir);
    fs::last_write_time(probe.recordPath(jobKey(a)),
                        fs::last_write_time(probe.recordPath(jobKey(b))) -
                            std::chrono::hours(1));

    ResultStore restarted(dir);
    ASSERT_EQ(restarted.entries(), 2u);
    EXPECT_EQ(restarted.evictTo(restarted.bytes() - 1), 1u);
    RunResult out;
    EXPECT_FALSE(restarted.get(jobKey(a), out));  // older: evicted
    EXPECT_TRUE(restarted.get(jobKey(b), out));

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, ReplicaRecordRoundTripsAndIsMarked)
{
    const std::string dir = freshDir("replica");
    ResultStore store(dir);

    Engine engine(1);
    const Job a = smallJob("gzip", "base");
    const Job b = smallJob("gzip", "dcg");
    const RunResult ra = engine.runOne(a);
    const RunResult rb = engine.runOne(b);

    // A replica-marked record serves the exact bytes that were
    // pushed, and only replica records carry the marker.
    store.putReplica(jobKey(a), ra);
    store.put(jobKey(b), rb);
    EXPECT_EQ(store.entries(), 2u);
    EXPECT_EQ(store.replicaRecords(), 1u);
    EXPECT_TRUE(store.recordIsReplica(jobKey(a)));
    EXPECT_FALSE(store.recordIsReplica(jobKey(b)));
    EXPECT_FALSE(store.recordIsReplica("never-stored"));

    RunResult out;
    ASSERT_TRUE(store.get(jobKey(a), out));
    EXPECT_EQ(asJson(ra), asJson(out));
    EXPECT_EQ(store.corruptRecords(), 0u);

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, ReplicaMarkerSurvivesRestart)
{
    const std::string dir = freshDir("replica_restart");
    Engine engine(1);
    const Job a = smallJob("mcf", "dcg");
    const RunResult ra = engine.runOne(a);
    {
        ResultStore store(dir);
        store.putReplica(jobKey(a), ra);
    }

    // A cold process reads the same record: still valid (the extra
    // header member is tolerated), still replica-marked.
    ResultStore restarted(dir);
    ASSERT_EQ(restarted.entries(), 1u);
    EXPECT_TRUE(restarted.recordIsReplica(jobKey(a)));
    RunResult out;
    ASSERT_TRUE(restarted.get(jobKey(a), out));
    EXPECT_EQ(asJson(ra), asJson(out));

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, PutOverwritesTheReplicaMarker)
{
    const std::string dir = freshDir("replica_overwrite");
    ResultStore store(dir);
    Engine engine(1);
    const Job a = smallJob("twolf", "dcg");
    const RunResult ra = engine.runOne(a);

    // Replica then locally computed: the local write wins the marker
    // (last-write-wins of identical bytes, like concurrent fan-outs).
    store.putReplica(jobKey(a), ra);
    EXPECT_TRUE(store.recordIsReplica(jobKey(a)));
    store.put(jobKey(a), ra);
    EXPECT_FALSE(store.recordIsReplica(jobKey(a)));
    EXPECT_EQ(store.entries(), 1u);

    // And back: a later replica push re-marks it.
    store.putReplica(jobKey(a), ra);
    EXPECT_TRUE(store.recordIsReplica(jobKey(a)));
    EXPECT_EQ(store.entries(), 1u);

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, ReplicaRecordsAreFirstClassForEviction)
{
    const std::string dir = freshDir("replica_lru");
    ResultStore store(dir);
    Engine engine(1);
    const Job a = smallJob("gzip", "base");
    const Job b = smallJob("gzip", "dcg");
    const Job c = smallJob("mcf", "dcg");

    // Replica and local records share one index, one byte count and
    // one LRU order — a replica is never double-counted or immune.
    store.put(jobKey(a), engine.runOne(a));
    store.putReplica(jobKey(b), engine.runOne(b));
    store.put(jobKey(c), engine.runOne(c));
    ASSERT_EQ(store.entries(), 3u);
    const std::uint64_t full = store.bytes();

    // Freshen 'a': the LRU victim is the replica record 'b'.
    RunResult out;
    ASSERT_TRUE(store.get(jobKey(a), out));
    EXPECT_EQ(store.evictTo(full - 1), 1u);
    EXPECT_EQ(store.entries(), 2u);
    EXPECT_FALSE(store.get(jobKey(b), out));
    EXPECT_TRUE(store.get(jobKey(a), out));
    EXPECT_TRUE(store.get(jobKey(c), out));

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, CompactKeepsValidReplicaRecordsOnly)
{
    namespace fs = std::filesystem;
    const std::string dir = freshDir("replica_compact");
    ResultStore store(dir);
    Engine engine(1);
    const Job a = smallJob("art", "dcg");
    store.putReplica(jobKey(a), engine.runOne(a));
    ASSERT_EQ(store.entries(), 1u);

    // A corrupted replica record is garbage like any other: compact
    // deletes it; the valid replica record survives with its marker.
    {
        std::ofstream bogus(
            fs::path(dir) / "ffeeddccbbaa99887766554433221100.json");
        bogus << "{\"dcg_store\": 1, \"key\": \"x\", \"replica\":"
                 " true}\n[]\n";
    }
    EXPECT_EQ(store.compact(), 1u);
    EXPECT_EQ(store.entries(), 1u);
    EXPECT_TRUE(store.recordIsReplica(jobKey(a)));
    RunResult out;
    EXPECT_TRUE(store.get(jobKey(a), out));

    std::filesystem::remove_all(dir);
}
