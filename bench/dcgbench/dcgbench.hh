/**
 * @file
 * dcgbench — the repository benchmark.
 *
 * Four workloads, each run in its own process for a fixed time:
 *
 *   sim-int       single-thread simulations, high IPC (gzip, perlbmk
 *                 under base/dcg/ddcg/cgooo): tick-path cost;
 *   sim-mem       single-thread simulations, low IPC (mcf, art under
 *                 base/plb-ext; an I-cache storm under base/dcg):
 *                 stall cycles, PLB constraints, idle skip-ahead;
 *   grid-figures  exp::Engine(4) regenerating the eight Figure 10-17
 *                 grids: worker pool, result cache, batch barriers;
 *   serve-grid    a 2-node replicated dcgserved ring in process under
 *                 a closed loop of 4 connections x 16 requests: JSON,
 *                 peer links, queueing, stores, replication.
 *
 * An untraced run prints the end-to-end metrics. A traced run repeats
 * the workload with spans recorded around the benchmark's calls into
 * each layer (from outside: nothing in the simulator is instrumented)
 * and prints the per-layer metrics. Both print `name value unit`
 * lines, then one JSON object as the last line of standard output.
 */

#ifndef DCGBENCH_DCGBENCH_HH
#define DCGBENCH_DCGBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "exp/job.hh"
#include "sim/simulator.hh"

namespace dcgbench {

using dcg::Profile;
using dcg::RunResult;
using dcg::SimConfig;
namespace exp = dcg::exp;

using Clock = std::chrono::steady_clock;

/** Steady-clock nanoseconds: span timestamps. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double secondsSince(Clock::time_point begin);

/** What one invocation runs. */
struct Params
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;  ///< measured time
    bool traced = false;
    /** Tiny sizes for the ctest smoke; default-seed digests are only
     *  checked at full size. */
    bool smoke = false;
};

/** Set-up repetitions per run; setup_s is their median. */
inline constexpr int kSetupReps = 9;

/** A metric the JSON result must carry, with its fixed unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Metrics and output checks of one run. */
class Report
{
  public:
    /** A metric of the run's JSON result (and a printed line). */
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** A printed line only: sample counts, breakdowns, digests. */
    void note(const std::string &name, double value,
              const std::string &unit);
    void noteText(const std::string &name, const std::string &text);

    /** Count @p n attempted operations. */
    void attempt(std::uint64_t n) { attempted += n; }
    /** An output check; a failed one counts in `failed`. */
    void check(bool ok, const std::string &what);
    /** Count @p n failed operations (nothing when 0). */
    void fail(std::uint64_t n, const std::string &what);

    /**
     * Print every line, then the JSON result as the last line.
     * @p expected names every metric the run must report; false (and
     * nothing printed) when one is missing, has another unit or is not
     * finite, or when nothing was attempted.
     */
    bool print(const std::vector<MetricDef> &expected) const;

    std::uint64_t failures() const { return failed; }

  private:
    struct Value
    {
        double value;
        std::string unit;
    };
    std::vector<std::string> lines;
    std::map<std::string, Value> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Linear-interpolated percentile @p p in [0,1] (0 when empty). */
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/**
 * The trace seed of repetition @p k of a workload run with @p seed.
 * Each round (or pass) simulates other programs of the same profiles,
 * so a run's figure averages over many programs instead of resting on
 * one seed's quirks.
 */
std::uint64_t repetitionSeed(std::uint64_t seed, std::uint64_t k);

/** FNV-1a 64 of @p bytes as 16 hex digits. */
std::string digestHex(const std::string &bytes);

/** writeResultsJson() bytes: the form every digest is taken over. */
std::string resultsBytes(const std::vector<RunResult> &results);

/**
 * Compare @p digest with expected/<workload>.digest. Only full-size
 * runs at seed 1 have a checked-in digest; other runs check only the
 * workload's invariants.
 */
void checkDigest(Report &rep, const Params &p, const std::string &digest);

/** Directory for scratch files (stores); inside the build tree. */
std::string workDir();

/** One slice of the timed phase: a round of sim jobs, a grid pass or
 *  a second of service load. */
struct Window
{
    std::uint64_t instructions = 0;  ///< simulated, warm-up included
    std::uint64_t cycles = 0;        ///< simulated, measured windows
    std::uint64_t jobs = 0;          ///< completed
    double seconds = 0.0;            ///< host seconds
    std::vector<double> latencyMs;   ///< one per completed job
};

/** What the end-to-end metrics are computed from. */
struct Throughput
{
    std::vector<double> setupSeconds;  ///< one per set-up repetition
    std::vector<Window> windows;
    /** Peak RSS after a fixed amount of work; 0 = at report time. */
    double peakRssMb = 0.0;
};

/**
 * setup_s (median over set-ups), peak_rss_mb, and the median over
 * windows of sim_instr_per_s, sim_cycles_per_s, jobs_per_s and
 * job_p50_ms: a burst of host noise moves one window, not the run's
 * figure.
 */
void reportEndToEnd(Report &rep, const Throughput &t);

/** Peak resident set so far (getrusage ru_maxrss), in MB. */
double peakRssMb();

// ---------------------------------------------------------------------
// Spans

/** One span. A rolled-up span stands for `calls` calls: it starts at
 *  the first call and lasts their summed duration. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::string name;
    std::string job;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t calls = 1;
    bool rollup = false;
};

/** Per-call timings of one layer inside one job. */
struct Rollup
{
    std::int64_t firstNs = -1;
    std::int64_t totalNs = 0;
    std::uint64_t calls = 0;

    void
    add(std::int64_t begin, std::int64_t end)
    {
        if (firstNs < 0)
            firstNs = begin;
        totalNs += end - begin;
        ++calls;
    }
};

/** In-memory span store; written as JSON lines at exit. */
class Tracer
{
  public:
    /** Record a finished span (id 0 = assign one); returns its id.
     *  Thread-safe. */
    std::uint64_t add(Span s);
    std::uint64_t addRollup(const std::string &name,
                            std::uint64_t parent, const std::string &job,
                            const Rollup &r);
    /** Reserve an id for a span recorded later (a parent whose end is
     *  not yet known when its children are recorded). */
    std::uint64_t reserve();

    /**
     * Summed self time of every span named @p name: its duration
     * minus the part its children cover (rolled-up children count
     * their summed duration, interval children their union).
     */
    double selfSeconds(const std::string &name) const;
    /** Summed duration of every span named @p name. */
    double totalSeconds(const std::string &name) const;

    std::vector<Span> snapshot() const;
    void write(const std::string &path) const;

  private:
    mutable std::mutex m;
    std::vector<Span> spans;
    std::uint64_t nextId = 1;
};

// ---------------------------------------------------------------------
// The simulator stack

/** One simulation with its seed already final. */
struct SimJob
{
    std::string name;  ///< "bench/scheme"
    Profile profile;
    SimConfig config;
    std::uint64_t insts = 0;
    std::uint64_t warmup = 0;
};

/** An engine job as the engine runs it (deriveJobSeed applied). */
SimJob simJobOf(const exp::Job &job);

/** Reference run: construct a Simulator, run, collect. */
RunResult runSimulator(const SimJob &job);

/**
 * The simulator's own invariants on one trace: every DCG-family
 * scheme takes base's cycles, no scheme uses more energy than base,
 * and per-component energies sum to each total. @p results holds
 * one benchmark's runs, base among them.
 */
void checkSchemeInvariants(Report &rep,
                           const std::vector<RunResult> &results);

/**
 * Traced pass: run @p jobs through a stack assembled from public
 * classes with spans around every layer call, check each result
 * against @p reference bit-for-bit, then time the branch predictor,
 * D-cache, result store and JSON codec on the same jobs' micro-op
 * streams and results. Reports the trace.*, pipeline.*, gating.*,
 * power.*, branch.*, cache.*, sim.* (except sim.job_ms_*), store.*
 * and json.* metrics. Returns the traced stack's wall seconds.
 */
double reportStackLayers(Report &rep, const Params &p,
                         const std::vector<SimJob> &jobs,
                         const std::vector<RunResult> &reference,
                         Tracer &tr, std::uint64_t parent);

/** Per-layer metrics only the service produces; 0 elsewhere. */
void reportNoService(Report &rep);

// ---------------------------------------------------------------------
// Workloads

void runSimWorkload(const Params &p, Report &rep, Tracer &tr);
void runGridWorkload(const Params &p, Report &rep, Tracer &tr);
void runServeWorkload(const Params &p, Report &rep, Tracer &tr);

} // namespace dcgbench

#endif // DCGBENCH_DCGBENCH_HH
