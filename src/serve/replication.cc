#include "serve/replication.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"
#include "serve/protocol.hh"

namespace dcg::serve {

ReplicatedStore::ReplicatedStore(std::shared_ptr<ResultStore> localStore,
                                 std::size_t selfIndex,
                                 const EpochView &view, unsigned replicas,
                                 PeerPool &peers)
    : local(std::move(localStore)), selfIdx(selfIndex), pool(peers)
{
    if (!local)
        fatal("replication: no local store to decorate");
    setEpochViews(view, EpochView{}, replicas);
}

void
ReplicatedStore::setEpochViews(const EpochView &cur,
                               const EpochView &prev, unsigned replicas)
{
    if (!cur.valid())
        fatal("replication: cannot install an empty current epoch");
    {
        std::lock_guard<std::mutex> lk(viewMutex);
        curView = cur;
        prevView = prev;
        viewReps = std::max(replicas, 1u);
        k = static_cast<unsigned>(std::min<std::size_t>(
            viewReps, cur.members.size()));
    }
}

bool
ReplicatedStore::get(const std::string &key, RunResult &out)
{
    return local->get(key, out);
}

void
ReplicatedStore::fetch(const std::string &key, FetchDone done)
{
    EpochView cur, prev;
    unsigned reps;
    {
        std::lock_guard<std::mutex> lk(viewMutex);
        cur = curView;
        prev = prevView;
        reps = viewReps;
    }

    const std::vector<std::size_t> curHolders = cur.holders(key, reps);
    std::vector<std::size_t> prevHolders;
    if (prev.valid())
        prevHolders = prev.holders(key, reps);

    // Only a holder (under either epoch) pulls from peers; everyone
    // else misses locally and lets the owner do the work.
    const auto holds = [this](const std::vector<std::size_t> &h) {
        return std::find(h.begin(), h.end(), selfIdx) != h.end();
    };
    if (!holds(curHolders) && !holds(prevHolders)) {
        done(nullptr);
        return;
    }

    // Current-epoch siblings first: ordinary read-repair. Then the
    // previous epoch's holders: the handoff leg. The record may still
    // live only where the old ring placed it.
    auto walk = std::make_shared<Walk>();
    walk->key = key;
    walk->req = fetchRequest(key);
    walk->done = std::move(done);
    for (std::size_t idx : curHolders)
        if (idx != selfIdx)
            walk->holders.push_back(idx);
    walk->handoffFrom = walk->holders.size();
    for (std::size_t idx : prevHolders)
        if (idx != selfIdx && std::find(curHolders.begin(),
                                        curHolders.end(),
                                        idx) == curHolders.end())
            walk->holders.push_back(idx);
    step(walk);
}

void
ReplicatedStore::step(const std::shared_ptr<Walk> &walk)
{
    if (walk->pos == walk->holders.size()) {
        ++misses;
        walk->done(nullptr);
        return;
    }
    pool.call(walk->holders[walk->pos], walk->req,
              [this, walk](PeerReply reply) {
                  std::vector<RunResult> one;
                  std::string err;
                  if (!reply.transportOk ||
                      !reply.resp.get("ok").asBool(false) ||
                      !resultsFromJson(reply.resp.get("result"), one,
                                       err) ||
                      one.size() != 1) {
                      ++walk->pos;
                      step(walk);
                      return;
                  }
                  local->putReplica(walk->key, one.front());
                  if (walk->pos < walk->handoffFrom)
                      ++repaired;
                  else
                      ++handoffs;
                  walk->done(&one.front());
              });
}

void
ReplicatedStore::put(const std::string &key, const RunResult &r)
{
    local->put(key, r);

    // Fan out to the current epoch's holders — including the new owner
    // of a key this node only serves under the previous epoch, which
    // doubles as an eager handoff of fresh results.
    std::vector<std::size_t> targets;
    {
        std::lock_guard<std::mutex> lk(viewMutex);
        for (std::size_t idx : curView.holders(key, viewReps))
            if (idx != selfIdx)
                targets.push_back(idx);
    }
    if (targets.empty())
        return;
    const JsonValue req = replicateRequest(key, r);
    {
        std::lock_guard<std::mutex> lk(pushMutex);
        pushesInflight += targets.size();
    }
    // A shut pool completes a post() inline, so no lock is held here.
    for (std::size_t idx : targets)
        pool.post(idx, req, [this](PeerReply reply) { pushDone(reply); });
}

void
ReplicatedStore::pushDone(const PeerReply &reply)
{
    if (reply.transportOk && reply.resp.get("ok").asBool(false))
        ++pushed;
    else
        ++pushFailed;
    std::lock_guard<std::mutex> lk(pushMutex);
    if (--pushesInflight == 0)
        pushCv.notify_all();
}

void
ReplicatedStore::flush()
{
    std::unique_lock<std::mutex> lk(pushMutex);
    pushCv.wait(lk, [this] { return pushesInflight == 0; });
}

} // namespace dcg::serve
