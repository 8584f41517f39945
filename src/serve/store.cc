#include "serve/store.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "sim/report.hh"

namespace fs = std::filesystem;

namespace dcg::serve {

namespace {

constexpr int kStoreFormatVersion = 1;

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * 128 bits of FNV-1a (two independent offset bases) keep accidental
 * collisions out of reach for any realistic sweep; a real collision
 * is still caught by the key stored inside the record.
 */
RecordId
recordId(const std::string &key)
{
    return {fnv1a(key, 0xcbf29ce484222325ULL),
            fnv1a(key, 0x84222325cbf29ce4ULL)};
}

/** The file a record lives in: 32 lowercase hex digits + ".json". */
std::string
recordName(const RecordId &id)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx.json",
                  static_cast<unsigned long long>(id.hi),
                  static_cast<unsigned long long>(id.lo));
    return buf;
}

/** The id @p name spells; false for any name recordName() cannot
 *  produce. */
bool
parseRecordName(const std::string &name, RecordId &id)
{
    if (name.size() != 37 || name.compare(32, 5, ".json") != 0)
        return false;
    std::uint64_t half[2] = {0, 0};
    for (std::size_t i = 0; i < 32; ++i) {
        const char c = name[i];
        const int digit = c >= '0' && c <= '9'   ? c - '0'
                          : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                                 : -1;
        if (digit < 0)
            return false;
        half[i / 16] = half[i / 16] << 4 | static_cast<unsigned>(digit);
    }
    id = {half[0], half[1]};
    return true;
}

/** A leftover from an interrupted put(): "<record>.json.tmp.<n>". */
bool
isStaleTmp(const std::string &name)
{
    return name.find(".tmp.") != std::string::npos;
}

/**
 * Full validation of one record file: header line parses, format
 * version matches, the stored key hashes to this very file name, and
 * the body is exactly one readable RunResult.
 */
bool
validRecordFile(const fs::path &path)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::string header;
    if (!std::getline(is, header))
        return false;
    JsonValue h;
    std::string err;
    if (!JsonValue::parse(header, h, err) || !h.isObject() ||
        h.get("dcg_store").asI64(-1) != kStoreFormatVersion)
        return false;
    const std::string &key = h.get("key").asString();
    if (key.empty() ||
        recordName(recordId(key)) != path.filename().string())
        return false;
    std::vector<RunResult> results;
    return tryReadResultsJson(is, results, &err) && results.size() == 1;
}

} // namespace

ResultStore::ResultStore(const std::string &directory)
    : dir(directory)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        fatal("result store: cannot create directory '", dir, "': ",
              ec.message());

    // Index the surviving records, seeding last-access order from
    // file mtimes so a restarted service evicts the same "oldest
    // first" a long-running one would.
    struct Found
    {
        RecordId id;
        std::uint64_t bytes = 0;
        fs::file_time_type mtime;
    };
    std::vector<Found> found;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        Found f;
        if (!entry.is_regular_file() ||
            !parseRecordName(entry.path().filename().string(), f.id))
            continue;
        std::error_code fec;
        f.bytes = entry.file_size(fec);
        f.mtime = entry.last_write_time(fec);
        found.push_back(std::move(f));
    }
    if (ec)
        warn("result store: cannot index '", dir, "': ", ec.message());

    std::sort(found.begin(), found.end(),
              [](const Found &a, const Found &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.id < b.id;
              });
    for (const Found &f : found) {
        index.emplace(f.id, Rec{f.bytes, ++useClock});
        totalBytes += f.bytes;
    }
}

std::string
ResultStore::recordPath(const std::string &key) const
{
    return (fs::path(dir) / recordName(recordId(key))).string();
}

std::size_t
ResultStore::entries() const
{
    std::lock_guard<std::mutex> lk(indexMutex);
    return index.size();
}

std::uint64_t
ResultStore::bytes() const
{
    std::lock_guard<std::mutex> lk(indexMutex);
    return totalBytes;
}

void
ResultStore::setBudgetBytes(std::uint64_t b)
{
    std::size_t dropped = 0;
    {
        std::lock_guard<std::mutex> lk(indexMutex);
        budget = b;
        if (budget)
            dropped = evictLocked(budget, nullptr);
    }
    if (dropped)
        inform("result store: budget ", b, " B evicted ", dropped,
               " record(s)");
}

std::uint64_t
ResultStore::budgetBytes() const
{
    std::lock_guard<std::mutex> lk(indexMutex);
    return budget;
}

bool
ResultStore::get(const std::string &key, RunResult &out)
{
    std::ifstream is(recordPath(key));
    if (!is)
        return false;

    // Header line: {"dcg_store": 1, "key": "..."}.
    std::string header;
    if (!std::getline(is, header)) {
        ++corrupt;
        return false;
    }
    JsonValue h;
    std::string err;
    if (!JsonValue::parse(header, h, err) || !h.isObject() ||
        h.get("dcg_store").asI64(-1) != kStoreFormatVersion ||
        h.get("key").asString() != key) {
        ++corrupt;
        return false;
    }

    // Body: the standard one-result JSON array. Any truncation or
    // damage is a miss; the caller re-simulates and put() repairs.
    std::vector<RunResult> results;
    if (!tryReadResultsJson(is, results, &err) || results.size() != 1) {
        ++corrupt;
        return false;
    }
    out = std::move(results.front());

    std::lock_guard<std::mutex> lk(indexMutex);
    auto it = index.find(recordId(key));
    if (it != index.end())
        it->second.lastUse = ++useClock;
    return true;
}

void
ResultStore::put(const std::string &key, const RunResult &r)
{
    putRecord(key, r, false);
}

void
ResultStore::putReplica(const std::string &key, const RunResult &r)
{
    ++replicas;
    putRecord(key, r, true);
}

bool
ResultStore::recordIsReplica(const std::string &key) const
{
    std::ifstream is(recordPath(key));
    std::string header;
    if (!is || !std::getline(is, header))
        return false;
    JsonValue h;
    std::string err;
    return JsonValue::parse(header, h, err) && h.isObject() &&
           h.get("replica").asBool(false);
}

void
ResultStore::putRecord(const std::string &key, const RunResult &r,
                       bool replica)
{
    const RecordId id = recordId(key);
    const fs::path final_path = fs::path(dir) / recordName(id);
    const fs::path tmp_path =
        final_path.string() + ".tmp." +
        std::to_string(tmpCounter.fetch_add(1));

    {
        std::ofstream os(tmp_path);
        if (!os) {
            warn("result store: cannot write '", tmp_path.string(),
                 "'; result not persisted");
            return;
        }
        JsonValue header = JsonValue::object();
        header.set("dcg_store", JsonValue::integer(
            static_cast<std::int64_t>(kStoreFormatVersion)));
        header.set("key", JsonValue::string(key));
        if (replica)
            header.set("replica", JsonValue::boolean(true));
        os << header.dump() << '\n';
        writeResultsJson({r}, os);
        os.flush();
        if (!os) {
            warn("result store: short write to '", tmp_path.string(),
                 "'; result not persisted");
            std::error_code ec;
            fs::remove(tmp_path, ec);
            return;
        }
    }

    std::error_code ec;
    const std::uint64_t written = fs::file_size(tmp_path, ec);
    std::error_code rec;
    fs::rename(tmp_path, final_path, rec);
    if (rec) {
        warn("result store: cannot rename '", tmp_path.string(),
             "' into place: ", rec.message());
        fs::remove(tmp_path, rec);
        return;
    }

    std::lock_guard<std::mutex> lk(indexMutex);
    auto [it, inserted] = index.emplace(id, Rec{});
    if (!inserted)
        totalBytes -= std::min(totalBytes, it->second.bytes);
    it->second.bytes = ec ? 0 : written;
    it->second.lastUse = ++useClock;
    totalBytes += it->second.bytes;
    if (budget && totalBytes > budget)
        evictLocked(budget, &id);
}

std::vector<std::string>
ResultStore::keys() const
{
    std::vector<RecordId> ids;
    {
        std::lock_guard<std::mutex> lk(indexMutex);
        ids.reserve(index.size());
        for (const auto &[id, rec] : index)
            ids.push_back(id);
    }

    std::vector<std::string> out;
    out.reserve(ids.size());
    for (const RecordId &id : ids) {
        std::ifstream is(fs::path(dir) / recordName(id));
        std::string header;
        if (!is || !std::getline(is, header))
            continue;  // evicted/compacted away mid-scan
        JsonValue h;
        std::string err;
        if (!JsonValue::parse(header, h, err) || !h.isObject() ||
            h.get("dcg_store").asI64(-1) != kStoreFormatVersion)
            continue;
        std::string key = h.get("key").asString();
        if (!key.empty())
            out.push_back(std::move(key));
    }
    return out;
}

std::size_t
ResultStore::evictLocked(std::uint64_t target, const RecordId *keep)
{
    std::size_t dropped = 0;
    while (totalBytes > target) {
        auto victim = index.end();
        for (auto it = index.begin(); it != index.end(); ++it) {
            if (keep && it->first == *keep)
                continue;
            if (victim == index.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == index.end())
            break;  // nothing evictable (at most the kept record)
        const std::string name = recordName(victim->first);
        std::error_code ec;
        fs::remove(fs::path(dir) / name, ec);
        if (ec)
            warn("result store: cannot evict '", name, "': ",
                 ec.message());
        totalBytes -= std::min(totalBytes, victim->second.bytes);
        index.erase(victim);
        ++dropped;
        ++evicted;
    }
    return dropped;
}

std::size_t
ResultStore::evictTo(std::uint64_t budgetBytes)
{
    std::lock_guard<std::mutex> lk(indexMutex);
    return evictLocked(budgetBytes, nullptr);
}

std::size_t
ResultStore::compact()
{
    std::lock_guard<std::mutex> lk(indexMutex);

    std::size_t removed = 0;
    std::unordered_map<RecordId, Rec, IdHash> fresh;
    std::uint64_t freshBytes = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        // Interrupted-write leftovers are always garbage: a completed
        // put() renames its tmp file away.
        if (isStaleTmp(name)) {
            std::error_code fec;
            fs::remove(entry.path(), fec);
            ++removed;
            continue;
        }
        if (entry.path().extension() != ".json")
            continue;
        RecordId id;
        if (!parseRecordName(name, id) || !validRecordFile(entry.path())) {
            std::error_code fec;
            fs::remove(entry.path(), fec);
            ++removed;
            ++corrupt;
            continue;
        }
        std::error_code fec;
        Rec rec;
        rec.bytes = entry.file_size(fec);
        auto it = index.find(id);
        rec.lastUse = it != index.end() ? it->second.lastUse
                                        : ++useClock;
        freshBytes += rec.bytes;
        fresh.emplace(id, rec);
    }
    if (ec) {
        warn("result store: compaction scan of '", dir,
             "' failed: ", ec.message());
        return removed;
    }

    index = std::move(fresh);
    totalBytes = freshBytes;
    ++compactPasses;
    if (budget)
        removed += evictLocked(budget, nullptr);
    return removed;
}

} // namespace dcg::serve
