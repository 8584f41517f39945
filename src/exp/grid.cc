#include "exp/grid.hh"

#include <algorithm>

#include "common/log.hh"
#include "gating/registry.hh"

namespace dcg::exp {

namespace {

/** "base" first, then the requested schemes in order, de-duplicated. */
std::vector<std::string>
requestedSchemes(const GridRequest &req)
{
    std::vector<std::string> schemes{"base"};
    for (const std::string &s : req.schemes) {
        if (!gating::schemes().find(s))
            fatal("grid request names unknown scheme '", s,
                  "' (expected ", gating::schemes().joined(), ")");
        if (std::find(schemes.begin(), schemes.end(), s) ==
            schemes.end())
            schemes.push_back(s);
    }
    return schemes;
}

std::vector<Profile>
requestedProfiles(const GridRequest &req)
{
    if (req.benchmarks.empty())
        return allSpecProfiles();
    std::vector<Profile> profiles;
    profiles.reserve(req.benchmarks.size());
    for (const std::string &name : req.benchmarks)
        profiles.push_back(profileByName(name));
    return profiles;
}

} // namespace

bool
SchemeResults::has(const std::string &scheme) const
{
    for (const auto &[name, result] : results) {
        if (name == scheme)
            return true;
    }
    return false;
}

const RunResult &
SchemeResults::scheme(const std::string &name) const
{
    for (const auto &[scheme_name, result] : results) {
        if (scheme_name == name)
            return result;
    }
    fatal("SchemeResults for '", profile.name, "' holds no scheme '",
          name, "' — the grid request did not include it");
}

std::vector<Job>
gridJobs(const GridRequest &req)
{
    const auto schemes = requestedSchemes(req);
    std::vector<Job> jobs;
    for (const Profile &p : requestedProfiles(req)) {
        for (const std::string &s : schemes) {
            const SimConfig cfg = req.deepPipeline
                ? deepPipelineConfig(s) : table1Config(s);
            jobs.push_back(makeJob(p, cfg, req.instructions,
                                   req.warmup));
        }
    }
    return jobs;
}

std::vector<SchemeResults>
runGrid(Engine &engine, const GridRequest &req)
{
    const auto schemes = requestedSchemes(req);
    const auto jobs = gridJobs(req);
    const auto results = engine.run(jobs);

    std::vector<SchemeResults> grid;
    grid.reserve(jobs.size() / schemes.size());
    std::size_t i = 0;
    for (const Profile &p : requestedProfiles(req)) {
        SchemeResults r;
        r.profile = p;
        r.results.reserve(schemes.size());
        for (const std::string &s : schemes)
            r.results.emplace_back(s, results[i++]);
        grid.push_back(std::move(r));
    }
    return grid;
}

} // namespace dcg::exp
