/**
 * @file
 * ResultStore: the persistent, content-addressed result layer that
 * dcgserved (and any Engine) slots beneath the in-memory cache.
 *
 * One record per jobKey(), stored as a small file whose name is a
 * 128-bit FNV-1a hash of the key. A record is a one-line JSON header
 * (format version + the full key, for verification) followed by the
 * standard writeResultsJson() array of exactly one RunResult, so the
 * on-disk format round-trips bit-exactly through the same code path
 * as every other result file in the repo.
 *
 * Durability and tolerance:
 *  - writes go to a temporary file in the same directory and are
 *    renamed into place, so readers never observe a half-written
 *    record and concurrent writers of the same key last-write-win;
 *  - a truncated, corrupt or foreign record (including a hash
 *    collision, detected via the stored key) is treated as a miss —
 *    the engine re-simulates and put() repairs the record in place.
 *
 * Lifecycle:
 *  - every record carries a last-access stamp (seeded from file
 *    mtimes at open, bumped in memory on get/put), and evictTo()
 *    removes least-recently-used records until the store fits a byte
 *    budget. setBudgetBytes() makes put() enforce the bound
 *    automatically, so a long-lived service never grows without
 *    limit. The record just written is never the eviction victim.
 *  - compact() garbage-collects the directory: stale "*.tmp.*"
 *    leftovers from interrupted writes and "*.json" files that fail
 *    full validation as records (header, key/filename agreement,
 *    result body) are deleted, and the index and byte accounting are
 *    rebuilt. dcgserved runs one pass at startup and serves
 *    {"op":"compact"} on demand.
 *
 * Safe for concurrent use from several worker threads (the index is
 * mutex-guarded; file operations are per-key).
 */

#ifndef DCG_SERVE_STORE_HH
#define DCG_SERVE_STORE_HH

#include <atomic>
#include <compare>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hh"
#include "exp/engine.hh"

namespace dcg::serve {

/** A record's identity: the 128-bit hash of its job key, which also
 *  names its file. */
struct RecordId
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    auto operator<=>(const RecordId &) const = default;
};

class ResultStore : public exp::ResultStoreBase
{
  public:
    /**
     * Open (creating if needed) the store rooted at @p directory and
     * index the records already present. fatal() if the directory
     * cannot be created.
     */
    explicit ResultStore(const std::string &directory);

    bool get(const std::string &key, RunResult &out)
        override DCG_ANY_THREAD;
    void put(const std::string &key, const RunResult &r)
        override DCG_ANY_THREAD;

    /**
     * Persist a record on behalf of a peer (the owner fanning a
     * result out, or a read-repair pull). Identical bytes to put()
     * except the header is marked "replica": true, so tooling can
     * tell locally-computed records from replicated ones; the record
     * is a first-class index entry either way — LRU budgets and
     * compaction count it exactly once, like any other record.
     */
    void putReplica(const std::string &key, const RunResult &r)
        DCG_ANY_THREAD;

    /**
     * True when the record for @p key exists and its header carries
     * the replica marker (exposed for tests/tools).
     */
    bool recordIsReplica(const std::string &key) const DCG_ANY_THREAD;

    /** Replica-marked records written by this process so far. */
    std::uint64_t replicaRecords() const DCG_ANY_THREAD
    {
        return replicas.load();
    }

    /// @name Lifecycle
    /// @{
    /** Records currently on disk. */
    std::size_t entries() const DCG_ANY_THREAD;
    /** Bytes the records occupy on disk. */
    std::uint64_t bytes() const DCG_ANY_THREAD;
    /**
     * Evict least-recently-used records until bytes() <= @p budget;
     * evictTo(0) empties the store. Returns the records evicted.
     */
    std::size_t evictTo(std::uint64_t budgetBytes) DCG_ANY_THREAD;
    /**
     * Garbage-collect the directory (see the file comment); returns
     * the objects removed or repaired.
     */
    std::size_t compact() DCG_ANY_THREAD;
    /// @}

    /**
     * Enable automatic LRU eviction: after every put() the store is
     * trimmed back to @p budget bytes. 0 disables (the default).
     */
    void setBudgetBytes(std::uint64_t budget) DCG_ANY_THREAD;
    std::uint64_t budgetBytes() const DCG_ANY_THREAD;

    /** Corrupt/foreign records encountered by get() so far. */
    std::uint64_t corruptRecords() const DCG_ANY_THREAD
    {
        return corrupt.load();
    }

    /** Records removed by evictTo()/budget enforcement so far. */
    std::uint64_t evictedRecords() const DCG_ANY_THREAD
    {
        return evicted.load();
    }

    /** compact() passes completed so far. */
    std::uint64_t compactions() const DCG_ANY_THREAD
    {
        return compactPasses.load();
    }

    const std::string &directory() const DCG_ANY_THREAD
    {
        return dir;
    }

    /** Absolute record path for @p key (exposed for tests/tools). */
    std::string recordPath(const std::string &key) const
        DCG_ANY_THREAD;

    /**
     * Every stored record's full job key, recovered from the record
     * headers (file names are hashes; the keys live inside). The
     * index is snapshotted under the lock, the headers are read
     * without it — records vanishing mid-scan are simply skipped.
     * This is the rebalance scan of an epoch change: the server walks
     * it to find the keys whose ring arc moved.
     */
    std::vector<std::string> keys() const DCG_ANY_THREAD;

  private:
    struct Rec
    {
        std::uint64_t bytes = 0;
        std::uint64_t lastUse = 0;
    };

    /** The id is already a hash: its high half is the bucket hash. */
    struct IdHash
    {
        std::size_t operator()(const RecordId &id) const noexcept
        {
            return static_cast<std::size_t>(id.hi);
        }
    };

    /** Drop LRU records until totalBytes <= budget; indexMutex held.
     *  @p keep (null = none) is never evicted. */
    std::size_t evictLocked(std::uint64_t budget, const RecordId *keep)
        DCG_REQUIRES(indexMutex);
    void putRecord(const std::string &key, const RunResult &r,
                   bool replica);

    std::string dir;
    mutable std::mutex indexMutex;
    /** By id rather than file name: an entry then needs no string of
     *  its own, and a long-lived node keeps one entry per record. */
    std::unordered_map<RecordId, Rec, IdHash> index
        DCG_GUARDED_BY(indexMutex);
    std::uint64_t totalBytes DCG_GUARDED_BY(indexMutex) = 0;
    std::uint64_t useClock DCG_GUARDED_BY(indexMutex) = 0;
    std::uint64_t budget DCG_GUARDED_BY(indexMutex) = 0;
    std::atomic<std::uint64_t> corrupt{0};
    std::atomic<std::uint64_t> replicas{0};
    std::atomic<std::uint64_t> evicted{0};
    std::atomic<std::uint64_t> compactPasses{0};
    std::atomic<std::uint64_t> tmpCounter{0};
};

} // namespace dcg::serve

#endif // DCG_SERVE_STORE_HH
