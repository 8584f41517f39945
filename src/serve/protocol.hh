/**
 * @file
 * Wire protocol for dcgserved: newline-delimited JSON, one request and
 * one response object per line.
 *
 * A JobSpec is the network-portable description of one simulation —
 * the same surface dcgsim exposes (benchmark, scheme, pipeline depth,
 * run lengths, seed, ablation toggles). Both sides expand a spec into
 * an exp::Job through the identical presets code path, which is what
 * makes `dcgsim --server` output byte-identical to a local run.
 *
 * Requests ("op" selects the verb):
 *   {"op":"submit", "job": {JobSpec}}  -> {"ok":true,"result":[RunResult]}
 *   {"op":"stats"}                     -> {"ok":true,"stats":{...}}
 *   {"op":"compact"}                   -> {"ok":true,"removed":N,...}
 *   {"op":"shutdown"}                  -> {"ok":true,"draining":true}
 * plus the peer verbs (replicate, fetch, epoch) and the membership
 * verbs (join, leave, ring) described below.
 *
 * A submit is answered exactly once, when its job finishes: with the
 * result, or with a structured error (busy, not_owner,
 * forward_failed, ...). Nothing a submit creates on the server
 * outlives that reply. A "wait" member is accepted and ignored — every
 * submit waits.
 *
 * Versioning: every node and client speaks exactly one protocol
 * version, kProtocolVersion. A request MAY carry "version": N; one
 * without it is served as the current version. Any other integer is
 * rejected with the structured error "unsupported_version" plus a
 * "supported" member naming kProtocolVersion. Every response carries
 * "version": kProtocolVersion.
 *
 * Request ids: a request MAY carry "rid", an opaque id chosen by the
 * sender, and every response echoes it verbatim — including a submit's
 * deferred reply and every error. That turns one TCP connection
 * into a pipelined multiplexed link: many requests in flight,
 * responses matched by rid in whatever order jobs finish (see
 * serve/peerlink.hh for the link layer built on this).
 *
 * Clustering: in a sharded deployment a submit for a job key this
 * node does not own is transparently forwarded to the owner.
 * Server-to-server forwards are marked "forwarded": true; a forwarded
 * submit is never re-forwarded (ring disagreement yields
 * {"ok":false, "error":"not_owner", "redirect":"HOST:PORT"} instead
 * of a forwarding loop).
 *
 * Replication: with --replicas=k every key lives on the k distinct
 * ring successors HashRing::owners() names. Two ops carry replica
 * records between holders:
 *   {"op":"replicate", "key": K, "result": [RunResult]}
 *       -> {"ok":true}            (receiver stores a replica record)
 *   {"op":"fetch", "key": K}
 *       -> {"ok":true, "result": [...]} or {"ok":false,
 *           "error":"not_found"}  (local store only — never recursive)
 * A forwarded submit additionally marked "replica": true asks a
 * *follower* to serve a key whose primary is unreachable; the
 * follower answers from its replica store (or simulates) instead of
 * bouncing not_owner.
 *
 * Cluster membership: the ring is not frozen at startup. Three admin
 * verbs ride the same envelope:
 *   {"op":"join",  "node":"HOST:PORT"}  -> add a running node
 *   {"op":"leave", "node":"HOST:PORT"}  -> remove a member
 *   {"op":"ring"}                       -> epoch, members, rebalance
 * plus the peer-to-peer verb the coordinator confirms a change with:
 *   {"op":"epoch", "epoch":N, "members":[...], "prev_epoch":M,
 *    "prev_members":[...], "replicas":k}
 * Membership is a *versioned ring epoch*: a monotonically increasing
 * epoch id plus the member list. A node receiving an epoch newer than
 * its own installs it (keeping the previous view for dual-epoch
 * routing), rebalances by pushing only the remapped ~1/N arcs to
 * their new owners over the `replicate` verb, and acks the epoch only
 * once that push queue drains — so a join/leave response means the
 * whole cluster has quiesced. An epoch older than the receiver's is
 * rejected with "stale_epoch" carrying the higher epoch and its
 * member list, which is how disagreeing peers resolve to the highest
 * epoch. Until handoff completes, previous-epoch holders keep serving
 * (`fetch` falls back to them), so no request ever misses.
 *
 * Error responses: {"ok":false, "error": "<code>", "detail": "..."};
 * a full queue answers code "busy" plus "retry_after_ms". Done results
 * carry "result": [<RunResult>] — the resultsToJson() array of
 * sim/report.hh on one line, numbers forwarded token-for-token. The
 * full verb catalog lives in the op registry (serve/ops.hh) and is
 * echoed on every stats response as "ops".
 */

#ifndef DCG_SERVE_PROTOCOL_HH
#define DCG_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "exp/job.hh"
#include "sim/report.hh"

namespace dcg::serve {

/** The one protocol version this build speaks. */
constexpr unsigned kProtocolVersion = 6;

/**
 * Extract a request's protocol version: absent = kProtocolVersion.
 * False + @p err when "version" is present but not a positive
 * integer. Any other version parses fine — reject it separately with
 * unsupportedVersionResponse() so the client learns what *is*
 * supported.
 */
bool requestVersion(const JsonValue &req, unsigned &version,
                    std::string &err);

/** Network-portable description of one simulation request. */
struct JobSpec
{
    std::string bench = "gzip";
    std::string scheme = "dcg";   ///< any registered gating scheme
    unsigned depth = 8;           ///< >= 20 selects the Fig-17 machine
    std::uint64_t insts = 0;      ///< 0 = receiver-side default
    std::uint64_t warmup = 0;
    std::uint64_t seed = 1;
    bool gateIq = false;
    bool storeDelay = false;
    bool roundRobin = false;

    /**
     * Largest insts or warmup a spec may carry: above the paper's 500M
     * measured instructions and every count the tree uses (600k at
     * most), far below where a run's cycle budget saturates.
     */
    static constexpr std::uint64_t kMaxInstructions = 1'000'000'000;

    /**
     * Validate without terminating (the server must reject, not die):
     * false + @p err on unknown benchmark/scheme, or on insts or
     * warmup above kMaxInstructions.
     */
    bool validate(std::string &err) const;

    /** Expand via the presets path; fatal() if not validate()d. */
    exp::Job toJob() const;

    JsonValue toJson() const;
    static bool fromJson(const JsonValue &v, JobSpec &out,
                         std::string &err);
};

/// @name Response helpers (shared by server and tests)
/// @{
JsonValue okResponse();
JsonValue errorResponse(const std::string &code,
                        const std::string &detail);

/** Stamp the response envelope's "version" member (insert/replace). */
void stampVersion(JsonValue &resp, unsigned version);

/**
 * Rid echo: copy @p req's "rid" member (if any) onto @p resp,
 * token-for-token. Every server response path funnels through this so
 * a multiplexed peer can match responses to in-flight requests no
 * matter which op — or which error branch — produced them.
 */
void echoRid(const JsonValue &req, JsonValue &resp);

/** "unsupported_version" error naming kProtocolVersion. */
JsonValue unsupportedVersionResponse(unsigned requested);

/** "not_owner" error carrying the owning node as "redirect". */
JsonValue notOwnerResponse(const std::string &ownerAddress);

/** "replicate" push: hand @p result for @p key to a follower. */
JsonValue replicateRequest(const std::string &key, const RunResult &r);

/** "fetch" pull: ask a holder for its local record of @p key. */
JsonValue fetchRequest(const std::string &key);

/**
 * "epoch" confirmation: install ring epoch @p epoch with member
 * list @p members, superseding (@p prevEpoch, @p prevMembers).
 * @p replicas carries the coordinator's configured factor so a
 * freshly joined node replicates with the cluster's k, not its own.
 */
JsonValue epochRequest(std::uint64_t epoch,
                       const std::vector<std::string> &members,
                       std::uint64_t prevEpoch,
                       const std::vector<std::string> &prevMembers,
                       unsigned replicas);

/** "stale_epoch" error carrying the higher epoch and its members —
 *  how peers that disagree resolve to the highest epoch. */
JsonValue staleEpochResponse(std::uint64_t epoch,
                             const std::vector<std::string> &members);

/** A ring member list as a JSON array of "host:port" strings. */
JsonValue memberListJson(const std::vector<std::string> &members);
/// @}

} // namespace dcg::serve

#endif // DCG_SERVE_PROTOCOL_HH
