#include "serve/protocol.hh"

#include <algorithm>

#include "common/log.hh"
#include "gating/registry.hh"
#include "sim/presets.hh"
#include "trace/spec2000.hh"

namespace dcg::serve {

bool
JobSpec::validate(std::string &err) const
{
    if (!gating::schemes().find(scheme)) {
        err = "unknown scheme '" + scheme + "' (expected " +
              gating::schemes().joined() + ")";
        return false;
    }
    const auto benches = allSpecNames();
    if (std::find(benches.begin(), benches.end(), bench) ==
        benches.end()) {
        err = "unknown benchmark '" + bench + "'";
        return false;
    }
    if (insts > kMaxInstructions || warmup > kMaxInstructions) {
        err = "insts " + std::to_string(insts) + " / warmup " +
              std::to_string(warmup) + " exceed the limit of " +
              std::to_string(kMaxInstructions);
        return false;
    }
    return true;
}

exp::Job
JobSpec::toJob() const
{
    if (!gating::schemes().find(scheme))
        fatal("JobSpec::toJob on unvalidated scheme '", scheme, "'");

    // Mirror dcgsim's local configuration path exactly: this is the
    // contract that makes --server output byte-identical.
    SimConfig cfg = depth >= 20 ? deepPipelineConfig(scheme)
                                : table1Config(scheme);
    cfg.seed = seed;
    cfg.dcg.gateIssueQueue = gateIq;
    cfg.core.delayStoresOneCycle = storeDelay;
    cfg.core.sequentialPriority = !roundRobin;
    return exp::makeJob(profileByName(bench), cfg, insts, warmup);
}

JsonValue
JobSpec::toJson() const
{
    JsonValue o = JsonValue::object();
    o.set("bench", JsonValue::string(bench));
    o.set("scheme", JsonValue::string(scheme));
    o.set("depth", JsonValue::integer(std::uint64_t{depth}));
    o.set("insts", JsonValue::integer(insts));
    o.set("warmup", JsonValue::integer(warmup));
    o.set("seed", JsonValue::integer(seed));
    if (gateIq)
        o.set("gate_iq", JsonValue::boolean(true));
    if (storeDelay)
        o.set("store_delay", JsonValue::boolean(true));
    if (roundRobin)
        o.set("round_robin", JsonValue::boolean(true));
    return o;
}

bool
JobSpec::fromJson(const JsonValue &v, JobSpec &out, std::string &err)
{
    if (!v.isObject()) {
        err = "job spec must be an object";
        return false;
    }
    JobSpec s;
    s.bench = v.get("bench").asString();
    s.scheme = v.has("scheme") ? v.get("scheme").asString() : "dcg";
    s.depth = static_cast<unsigned>(v.get("depth").asU64(8));
    s.insts = v.get("insts").asU64(0);
    s.warmup = v.get("warmup").asU64(0);
    s.seed = v.get("seed").asU64(1);
    s.gateIq = v.get("gate_iq").asBool(false);
    s.storeDelay = v.get("store_delay").asBool(false);
    s.roundRobin = v.get("round_robin").asBool(false);
    if (!s.validate(err))
        return false;
    out = std::move(s);
    return true;
}

JsonValue
okResponse()
{
    JsonValue o = JsonValue::object();
    o.set("ok", JsonValue::boolean(true));
    return o;
}

JsonValue
errorResponse(const std::string &code, const std::string &detail)
{
    JsonValue o = JsonValue::object();
    o.set("ok", JsonValue::boolean(false));
    o.set("error", JsonValue::string(code));
    if (!detail.empty())
        o.set("detail", JsonValue::string(detail));
    return o;
}

bool
requestVersion(const JsonValue &req, unsigned &version,
               std::string &err)
{
    if (!req.has("version")) {
        version = kProtocolVersion;
        return true;
    }
    const JsonValue &v = req.get("version");
    const std::uint64_t n = v.asU64(0);
    if (!v.isNumber() || n == 0) {
        err = "version must be a positive integer";
        return false;
    }
    version = static_cast<unsigned>(n);
    return true;
}

void
stampVersion(JsonValue &resp, unsigned version)
{
    resp.set("version",
             JsonValue::integer(std::uint64_t{version}));
}

void
echoRid(const JsonValue &req, JsonValue &resp)
{
    if (req.has("rid"))
        resp.set("rid", req.get("rid"));
}

JsonValue
unsupportedVersionResponse(unsigned requested)
{
    JsonValue o = errorResponse(
        "unsupported_version",
        "requested protocol version " + std::to_string(requested) +
            "; this server speaks only version " +
            std::to_string(kProtocolVersion));
    o.set("supported",
          JsonValue::integer(std::uint64_t{kProtocolVersion}));
    return o;
}

JsonValue
notOwnerResponse(const std::string &ownerAddress)
{
    JsonValue o = errorResponse(
        "not_owner", "job key is owned by " + ownerAddress);
    o.set("redirect", JsonValue::string(ownerAddress));
    return o;
}

JsonValue
replicateRequest(const std::string &key, const RunResult &r)
{
    JsonValue o = JsonValue::object();
    o.set("op", JsonValue::string("replicate"));
    o.set("key", JsonValue::string(key));
    o.set("result", resultsToJson({r}));
    stampVersion(o, kProtocolVersion);
    return o;
}

JsonValue
fetchRequest(const std::string &key)
{
    JsonValue o = JsonValue::object();
    o.set("op", JsonValue::string("fetch"));
    o.set("key", JsonValue::string(key));
    stampVersion(o, kProtocolVersion);
    return o;
}

JsonValue
memberListJson(const std::vector<std::string> &members)
{
    JsonValue arr = JsonValue::array();
    for (const std::string &m : members)
        arr.push(JsonValue::string(m));
    return arr;
}

JsonValue
epochRequest(std::uint64_t epoch,
             const std::vector<std::string> &members,
             std::uint64_t prevEpoch,
             const std::vector<std::string> &prevMembers,
             unsigned replicas)
{
    JsonValue o = JsonValue::object();
    o.set("op", JsonValue::string("epoch"));
    o.set("epoch", JsonValue::integer(epoch));
    o.set("members", memberListJson(members));
    o.set("prev_epoch", JsonValue::integer(prevEpoch));
    o.set("prev_members", memberListJson(prevMembers));
    o.set("replicas", JsonValue::integer(std::uint64_t{replicas}));
    stampVersion(o, kProtocolVersion);
    return o;
}

JsonValue
staleEpochResponse(std::uint64_t epoch,
                   const std::vector<std::string> &members)
{
    JsonValue o = errorResponse(
        "stale_epoch", "this node is already on a newer ring epoch");
    o.set("epoch", JsonValue::integer(epoch));
    o.set("members", memberListJson(members));
    return o;
}

} // namespace dcg::serve
