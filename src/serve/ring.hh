/**
 * @file
 * HashRing: the deterministic consistent-hash ring that assigns every
 * content-addressed job key to exactly one cluster node.
 *
 * Each node contributes a fixed number of virtual points, hashed from
 * its canonical "host:port" name (see endpoint.hh); a key belongs to
 * the node owning the first point at or after the key's hash,
 * wrapping at the top. Two properties the cluster relies on:
 *
 *  - *Agreement*: the ring is a pure function of the node-name set —
 *    list order, construction site (client or server) and process do
 *    not matter — so a client fanning a grid out and a server
 *    deciding whether to forward always name the same owner.
 *  - *Stability*: adding or removing one node only remaps the keys
 *    that move to/from that node (~1/N of the space); everything else
 *    keeps its owner, which is what keeps a persistent shard's store
 *    warm across cluster resizes.
 *
 * Hashing is 64-bit FNV-1a with a 64-bit avalanche finisher, applied
 * to the node name (per virtual point) and to the key; no randomness,
 * no process state.
 */

#ifndef DCG_SERVE_RING_HH
#define DCG_SERVE_RING_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dcg::serve {

class HashRing
{
  public:
    /** Virtual points per node; enough for <5 % imbalance at N<=16. */
    static constexpr unsigned kDefaultVnodes = 64;

    HashRing() = default;

    /**
     * Build from canonical node names (typically Endpoint::str()s).
     * fatal() on duplicate names — a duplicate would double-weight a
     * node, and the parse layer already rejects it.
     */
    explicit HashRing(std::vector<std::string> nodeNames,
                      unsigned vnodesPerNode = kDefaultVnodes);

    bool empty() const { return names.empty(); }
    std::size_t nodeCount() const { return names.size(); }
    const std::vector<std::string> &nodeNames() const { return names; }

    /** Owning node for @p key; fatal() on an empty ring. */
    const std::string &owner(const std::string &key) const;

    /** Index into nodeNames() of owner(key). */
    std::size_t ownerIndex(const std::string &key) const;

    /**
     * The first min(k, nodeCount()) *distinct* nodes encountered
     * walking the ring from the key's point: owners(key, k)[0] is the
     * primary owner(key), the rest are the replica followers, in
     * deterministic successor order. k >= nodeCount() returns every
     * node exactly once (the whole cluster holds the key). Like the
     * single-owner lookup this is a pure function of the name set, so
     * clients and servers always agree on a key's replica set.
     * fatal() on an empty ring or k == 0.
     */
    std::vector<std::size_t> ownerIndices(const std::string &key,
                                          std::size_t k) const;

    /** Names form of ownerIndices(key, k). */
    std::vector<std::string> owners(const std::string &key,
                                    std::size_t k) const;

    /** 64-bit FNV-1a + avalanche finisher (exposed for tests). */
    static std::uint64_t hash(const std::string &s);

  private:
    std::vector<std::string> names;
    /** (point hash, node index), sorted by hash then index. */
    std::vector<std::pair<std::uint64_t, std::uint32_t>> points;
};

/**
 * EpochView: one versioned ring epoch — the unit of elastic cluster
 * membership. A monotonically increasing epoch id, the
 * member list it was agreed for, the ring built over those members,
 * and the mapping from each member's ring ordinal to its index in the
 * process-local append-only node table (which is what peer links and
 * transports are addressed by — nodes keep their table slot across
 * epochs, so in-flight peer work survives a membership change).
 *
 * A server holds two: the current epoch routes new work, while the
 * previous one keeps answering for records whose handoff has not
 * landed yet (dual-epoch routing). Plain value type; the thread
 * owning it decides the locking.
 */
struct EpochView
{
    std::uint64_t epoch = 0;
    std::vector<std::string> members;   ///< canonical "host:port"s
    std::vector<std::size_t> nodeIdx;   ///< member ordinal -> node table
    HashRing ring;                      ///< built over members

    /** An epoch with no members is "no view" (e.g. no previous). */
    bool valid() const { return !members.empty(); }

    bool hasMember(const std::string &addr) const
    {
        for (const std::string &m : members)
            if (m == addr)
                return true;
        return false;
    }

    /** The key's holder *node-table* indices, primary first: the
     *  first min(k, members) nodes of its ring walk. */
    std::vector<std::size_t> holders(const std::string &key,
                                     std::size_t k) const
    {
        std::vector<std::size_t> out;
        for (std::size_t ord : ring.ownerIndices(key, k))
            out.push_back(nodeIdx[ord]);
        return out;
    }
};

} // namespace dcg::serve

#endif // DCG_SERVE_RING_HH
