/**
 * @file
 * ReplicatedStore: the replication layer of a --replicas=k cluster,
 * slotted between the Engine and the node's local ResultStore as a
 * decorator — the Engine keeps calling plain get()/put() and never
 * learns that records now live on k ring successors.
 *
 * Write path (put): the record lands in the local store first,
 * synchronously — the caller's durability is never held hostage to a
 * peer — then one `replicate` op is posted on the server's PeerPool
 * for each *other* holder the current ring epoch names for the key.
 * The event loop sends them and runs their completions; put() never
 * waits. Pushes are best-effort: a dead follower costs a counter
 * tick, not latency on the submit path, and one slow follower delays
 * no other follower's pushes. Any holder that stores a freshly
 * computed result fans out (not just the primary); results are
 * deterministic and byte-identical, so concurrent fan-outs of the
 * same key are harmless last-write-wins of identical bytes.
 *
 * Read path: get() reads the local store and nothing else. A local
 * miss — a cold restart, an evicted record, a corrupt file — on a key
 * this node holds is the caller's cue for fetch(), the read-repair
 * walk: the other holders are asked via the `fetch` op, one at a
 * time, and the first hit is written back locally as a replica
 * record and handed to the caller, which serves it as a disk hit.
 * That is precisely what makes a node restarted with an empty disk
 * serve its keys with zero re-simulations as long as one replica
 * survives. Only when every holder missed does the caller simulate.
 *
 * Replica records are ordinary records in the local store, so the
 * server budgets and compacts them there exactly once.
 *
 * Routing follows the server's ring epochs: the constructor takes the
 * current EpochView and setEpochViews() installs every later one. The
 * walk has a *handoff* leg — after the current epoch's sibling
 * holders, the *previous* epoch's holders are asked too (counted
 * separately as handoff fetches). That leg is what lets
 * a node serve an arc it just inherited before the background
 * rebalance push has landed the record, which in turn is what makes a
 * live join/leave lose zero work. Holder indices in a view are
 * node-table indices — the same index space the server's PeerPool is
 * addressed by.
 *
 * Peer I/O: every push and fetch rides the event loop's multiplexed
 * links on the server's one pool, and nothing here ever waits on a
 * peer. A push is a post() from the worker that stored the result; a
 * walk is a continuation on the event loop, each step a call() whose
 * completion asks the next holder. The server's drain waits for the
 * pool to go idle and for every open walk while the loop still
 * drives the links, and it shuts the pool down only then; after that
 * any straggler fails fast and counts as a push failure or a miss.
 *
 * Thread safety: get()/put() may be called from any worker thread;
 * fetch() and every completion run on the event loop thread. flush()
 * blocks until every posted push has completed — used by tests that
 * assert on follower state.
 */

#ifndef DCG_SERVE_REPLICATION_HH
#define DCG_SERVE_REPLICATION_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "serve/endpoint.hh"
#include "serve/peerlink.hh"
#include "serve/ring.hh"
#include "serve/store.hh"

namespace dcg::serve {

class ReplicatedStore : public exp::ResultStoreBase
{
  public:
    /**
     * @param local      the node's own ResultStore (must outlive this)
     * @param selfIndex  this node's index in the server's node table
     * @param view       the current ring epoch (see setEpochViews())
     * @param replicas   the cluster's configured k; the effective
     *                   factor is clamped to the view's member count
     * @param pool       the server's peer links, addressed by
     *                   node-table index (must outlive this)
     */
    ReplicatedStore(std::shared_ptr<ResultStore> local,
                    std::size_t selfIndex, const EpochView &view,
                    unsigned replicas, PeerPool &pool);

    ReplicatedStore(const ReplicatedStore &) = delete;
    ReplicatedStore &operator=(const ReplicatedStore &) = delete;

    /** The local store's record for @p key; never asks a peer. */
    bool get(const std::string &key, RunResult &out)
        override DCG_ANY_THREAD;
    void put(const std::string &key, const RunResult &r)
        override DCG_ANY_THREAD;

    /** A walk's outcome: the repaired record, or nullptr when every
     *  holder missed. */
    using FetchDone = std::function<void(const RunResult *hit)>;

    /**
     * The read-repair walk for @p key, which the local store missed:
     * ask the current epoch's other holders, then the previous
     * epoch's, one `fetch` at a time. @p done runs exactly once —
     * with the first valid record, already written back as a replica
     * and counted as a read repair or handoff fetch, or with nullptr
     * once every holder missed, counted as a replica miss. A node
     * that holds @p key under neither epoch asks nobody and counts
     * nothing. @p done may run before fetch() returns.
     */
    void fetch(const std::string &key, FetchDone done) DCG_OWNER_THREAD;

    /** Block until every posted fan-out push has completed. */
    void flush() DCG_ANY_THREAD;

    /**
     * Install the epoch views that route replication from now on:
     * @p cur decides a key's holders, @p prev (invalid() when there is
     * no previous epoch or its handoff completed) adds the handoff
     * read leg. @p replicas is the cluster's configured k; the
     * effective factor is clamped per view to its member count. May
     * be called repeatedly as epochs advance.
     */
    void setEpochViews(const EpochView &cur, const EpochView &prev,
                       unsigned replicas) DCG_ANY_THREAD;

    /** Effective replication factor (clamped to the cluster size). */
    unsigned factor() const DCG_ANY_THREAD { return k.load(); }

    /** Successful `replicate` pushes to followers. */
    std::uint64_t pushes() const DCG_ANY_THREAD
    {
        return pushed.load();
    }

    /** Fan-out pushes that failed (follower down/unreachable). */
    std::uint64_t pushFailures() const DCG_ANY_THREAD
    {
        return pushFailed.load();
    }

    /** Local misses repaired by fetching a peer's replica. */
    std::uint64_t readRepairs() const DCG_ANY_THREAD
    {
        return repaired.load();
    }

    /** Local misses no replica holder could serve either. */
    std::uint64_t replicaMisses() const DCG_ANY_THREAD
    {
        return misses.load();
    }

    /** Local misses served by a *previous-epoch* holder (handoff). */
    std::uint64_t handoffFetches() const DCG_ANY_THREAD
    {
        return handoffs.load();
    }

  private:
    /** One read-repair walk, threaded through its completions. */
    struct Walk
    {
        std::string key;
        JsonValue req;  ///< the `fetch` frame every holder gets
        /** Current-epoch siblings, then previous-epoch holders. */
        std::vector<std::size_t> holders;
        std::size_t handoffFrom = 0;  ///< first previous-epoch holder
        std::size_t pos = 0;
        FetchDone done;
    };

    /** Ask the walk's next holder, or end it as a miss. */
    void step(const std::shared_ptr<Walk> &walk) DCG_OWNER_THREAD;

    /** Count one push's outcome; wakes flush() at the last one. */
    void pushDone(const PeerReply &reply);

    std::shared_ptr<ResultStore> local;
    std::size_t selfIdx;
    std::atomic<unsigned> k{1};
    PeerPool &pool;

    mutable std::mutex viewMutex;
    EpochView curView DCG_GUARDED_BY(viewMutex);
    EpochView prevView DCG_GUARDED_BY(viewMutex);
    unsigned viewReps DCG_GUARDED_BY(viewMutex) = 1;

    std::mutex pushMutex;
    std::condition_variable pushCv;  ///< the last push completed
    std::size_t pushesInflight DCG_GUARDED_BY(pushMutex) = 0;

    std::atomic<std::uint64_t> pushed{0};
    std::atomic<std::uint64_t> pushFailed{0};
    std::atomic<std::uint64_t> repaired{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> handoffs{0};
};

} // namespace dcg::serve

#endif // DCG_SERVE_REPLICATION_HH
