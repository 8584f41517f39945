/**
 * @file
 * Job: one self-contained simulation request — a workload Profile, a
 * SimConfig and run lengths. Jobs are the unit of work the experiment
 * Engine schedules, caches and (when asked) runs in parallel.
 *
 * Two properties make jobs safe to reorder and share:
 *  - deriveJobSeed() gives every (config seed, workload) pair its own
 *    deterministic RNG stream, independent of when or where the job
 *    runs, so a parallel sweep is bit-identical to a serial one. Only
 *    the *seed* derivation ignores the gating scheme — all schemes of
 *    one benchmark see the same instruction stream, as the paper's
 *    methodology requires.
 *  - jobKey() is a canonical serialisation of *everything* that can
 *    influence a RunResult — the gating scheme and its per-scheme
 *    configuration very much included (schemes produce different
 *    energies over the shared stream, so keys must never collide
 *    across schemes, cache- or store-wide); two jobs with equal keys
 *    are guaranteed to produce equal results, which is what lets the
 *    Engine's cache hand out one simulation to many figures.
 */

#ifndef DCG_EXP_JOB_HH
#define DCG_EXP_JOB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "trace/profile.hh"

namespace dcg::exp {

struct Job
{
    Profile profile;
    SimConfig config;
    std::uint64_t instructions = 0;  ///< 0 = defaultBenchInstructions()
    std::uint64_t warmup = 0;        ///< 0 = defaultBenchWarmup()

    /**
     * Registry statistics to copy into RunResult::extraStats once the
     * run finishes (e.g. "plb.mode_transitions"). Absent names record
     * 0, matching StatRegistry::lookup().
     */
    std::vector<std::string> captureStats;

    std::uint64_t resolvedInstructions() const;
    std::uint64_t resolvedWarmup() const;
};

/** Convenience builder for the common case. */
Job makeJob(const Profile &profile, const SimConfig &config,
            std::uint64_t instructions = 0, std::uint64_t warmup = 0);

/**
 * Deterministic per-job RNG seed: mixes the configured seed with the
 * workload identity (name + model parameters). Scheme- and
 * run-length-independent by design; see the file comment.
 */
std::uint64_t deriveJobSeed(const Job &job);

/**
 * Canonical cache key covering the profile, the full configuration,
 * the resolved run lengths and the capture list. Doubles are encoded
 * as exact bit patterns, so "close" configs never collide.
 */
std::string jobKey(const Job &job);

/**
 * Key of the timing run behind @p job: the profile, the timing fields
 * of the configuration (core, branch predictor, memory hierarchy,
 * seed, skip-ahead) and the resolved run lengths. Jobs with equal
 * timing keys differ at most in scheme, per-scheme knobs, technology
 * and capture list; when their schemes are all timing-neutral the
 * Engine simulates them as lanes of one Simulator.
 */
std::string timingKey(const Job &job);

} // namespace dcg::exp

#endif // DCG_EXP_JOB_HH
