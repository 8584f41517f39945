/**
 * @file
 * dcgbench entry point.
 *
 *   dcgbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
 *   dcgbench --smoke
 *
 * NAME is sim-int, sim-mem, grid-figures or serve-grid; the seed
 * (default 1) generates every input. --trace=1 runs the traced
 * variant, prints the per-layer metrics and writes the spans as JSON
 * lines under the build tree. --smoke runs every workload untraced and
 * traced at a tiny size and exits non-zero on any failure.
 */

#include <fstream>
#include <iostream>
#include <thread>

#include "common/log.hh"
#include "common/options.hh"
#include "dcgbench.hh"

using namespace dcgbench;

namespace {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_instr_per_s", "instr/s"},
    {"sim_cycles_per_s", "cycles/s"},
    {"jobs_per_s", "1/s"},
    {"job_p50_ms", "ms"},
};

const std::vector<MetricDef> kPerLayer = {
    {"trace.self_s", "s"},
    {"trace.ns_per_op", "ns"},
    {"trace.coverage_frac", "frac"},
    {"trace.overhead_pct", "%"},
    {"pipeline.self_s", "s"},
    {"pipeline.ns_per_cycle", "ns"},
    {"pipeline.fetch_stall_frac", "frac"},
    {"gating.self_s", "s"},
    {"gating.ns_per_cycle", "ns"},
    {"power.self_s", "s"},
    {"power.ns_per_cycle", "ns"},
    {"branch.lookups", "count"},
    {"branch.mispredict_frac", "frac"},
    {"branch.ns_per_lookup", "ns"},
    {"cache.l1d_accesses", "count"},
    {"cache.l1i_miss_frac", "frac"},
    {"cache.l1d_miss_frac", "frac"},
    {"cache.l2_miss_frac", "frac"},
    {"cache.ns_per_access", "ns"},
    {"sim.skip_self_s", "s"},
    {"sim.skipped_cycle_frac", "frac"},
    {"sim.cycles_per_instr", "cycles/instr"},
    {"sim.setup_ms_per_job", "ms"},
    {"sim.job_ms_p50", "ms"},
    {"sim.job_ms_max", "ms"},
    {"workers.busy_s", "s"},
    {"workers.util", "frac"},
    {"workers.tail_frac", "frac"},
    {"jobs.simulated", "count"},
    {"jobs.hit_frac", "frac"},
    {"serve.forwarded_frac", "frac"},
    {"serve.forwards_inflight_peak", "count"},
    {"serve.queue_depth_p99", "count"},
    {"serve.busy_retries", "count"},
    {"serve.mem_hits", "count"},
    {"serve.disk_hits", "count"},
    {"serve.replicas_written", "count"},
    {"serve.replica_push_failures", "count"},
    {"store.put_us", "us"},
    {"store.get_us", "us"},
    {"json.encode_us", "us"},
    {"json.parse_us", "us"},
};

const char *const kWorkloads[] = {"sim-int", "sim-mem", "grid-figures",
                                  "serve-grid"};

/** The machine and build every result was measured on. */
std::string
machineStamp()
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
    }
    return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
           " cpu=\"" + cpu + "\" compiler=\"" +
#if defined(__clang__)
           "clang " +
#else
           "gcc " +
#endif
           std::string(__VERSION__) + "\" build=" + DCGBENCH_BUILD;
}

/** Run one workload and print its result; false when it could not
 *  report (a failed output check still prints, with correct=false). */
bool
runOne(const Params &p, std::uint64_t &failures)
{
    Report rep;
    Tracer tr;
    rep.noteText("machine", machineStamp());
    rep.noteText("workload", p.workload + " seed=" + std::to_string(p.seed) +
                                 (p.traced ? " traced" : " untraced"));
    if (p.workload == "grid-figures")
        runGridWorkload(p, rep, tr);
    else if (p.workload == "serve-grid")
        runServeWorkload(p, rep, tr);
    else
        runSimWorkload(p, rep, tr);

    if (p.traced) {
        const std::string path = workDir() + "/trace-" + p.workload +
                                 "-seed" + std::to_string(p.seed) +
                                 ".jsonl";
        tr.write(path);
        rep.noteText("trace_file", path);
    }
    failures += rep.failures();
    return rep.print(p.traced ? kPerLayer : kEndToEnd);
}

int
smoke()
{
    std::uint64_t failures = 0;
    bool printed = true;
    for (const char *w : kWorkloads) {
        for (const bool traced : {false, true}) {
            Params p;
            p.workload = w;
            p.seconds = 0.5;
            p.traced = traced;
            p.smoke = true;
            std::cout << "== " << w << (traced ? " (traced)" : "") << "\n";
            printed = runOne(p, failures) && printed;
        }
    }
    return printed && failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const dcg::Options opts(argc, argv,
                            {"workload", "seed", "seconds", "trace",
                             "smoke"});
    if (opts.has("smoke"))
        return smoke();

    Params p;
    p.workload = opts.getString("workload", "");
    std::int64_t seed = 1;
    if (opts.has("seed") &&
        (!dcg::Options::parseInt(opts.getString("seed", ""), seed) ||
         seed < 0))
        dcg::fatal("dcgbench: --seed must be a non-negative integer");
    p.seed = static_cast<std::uint64_t>(seed);
    p.seconds = opts.getDouble("seconds", 20.0);
    p.traced = opts.getString("trace", "0") != "0";

    bool known = false;
    for (const char *w : kWorkloads)
        known = known || p.workload == w;
    if (!known)
        dcg::fatal("dcgbench: --workload must be one of sim-int, sim-mem, "
                   "grid-figures, serve-grid");
    if (!(p.seconds > 0.0 && p.seconds <= 120.0))
        dcg::fatal("dcgbench: --seconds must be in (0, 120]");

    std::uint64_t failures = 0;
    return runOne(p, failures) ? 0 : 1;
}
