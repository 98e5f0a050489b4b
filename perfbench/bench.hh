/**
 * @file
 * Shared pieces of the drsim benchmark: command-line options, the
 * per-run report (metrics, failure accounting, correctness), timed
 * suite set-up and the traced replay of simulate().
 */

#ifndef DRSIM_PERFBENCH_BENCH_HH
#define DRSIM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "workloads/kernels.hh"

namespace perfbench {

/** Host threads every workload may use in total (worker pools plus
 *  client threads). */
constexpr int kThreads = 4;

/** Scratch files, relative to the checkout root run.py runs from. */
inline const std::string kOutDir = ".bench_build/perfbench";

/** Set-ups timed per run; setup_s is their median.  One set-up takes
 *  about 0.15 s and swings by a quarter between repetitions. */
constexpr int kSetupReps = 15;

/** Seed whose per-point digests are recorded in ref_digests.txt. */
constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Rewrite the reference digests instead of checking them. */
    bool record = false;
};

struct Metric
{
    double value = 0.0;
    std::string unit;
    /** Samples the value was computed from. */
    std::uint64_t samples = 0;
};

struct MetricDecl
{
    const char *name;
    const char *unit;
};

class Report
{
  public:
    /** Count one attempted operation; a non-empty @p problem fails it. */
    void op(const std::string &problem = "");
    /** A run-level correctness failure (also one failed operation). */
    void fail(const std::string &problem);

    void e2e(const std::string &name, double value, const char *unit,
             std::uint64_t samples);
    void layer(const std::string &name, double value, const char *unit,
               std::uint64_t samples);
    /** A figure printed for people only (not part of the JSON line). */
    void note(const std::string &name, double value, const char *unit,
              std::uint64_t samples);
    /** Percentile @p p of @p v under the reporting rule, as a note. */
    void notePercentile(const std::string &name,
                        const std::vector<double> &v, double p);

    /**
     * Put the per-layer (@p trace) or end-to-end list into the
     * declared order, adding 0 for any declared metric not reported.
     */
    void declare(bool trace, const MetricDecl *decls, std::size_t n);

    bool correct() const;
    /** Print the human-readable lines and the final JSON line. */
    void print(bool trace) const;

  private:
    mutable std::mutex mutex_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> problems_;
    std::vector<std::pair<std::string, Metric>> e2e_, layer_, notes_;
};

/** Seconds since @p t0 on the steady clock. */
inline double
since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Digest of every simulated statistic of one point. */
std::string resultDigest(const drsim::SimResult &r);

/** Per-layer counters of the timed set-up repetitions. */
struct SetupCounters
{
    std::uint64_t builds = 0;
    std::uint64_t verifies = 0;
};

/** Report the workloads.* and analysis.verify_* per-layer metrics of
 *  @p reps set-up repetitions, per repetition, from the tracer. */
void reportSetupLayers(Report &report, const SetupCounters &counters,
                       int reps);

/**
 * Build the nine kernels at @p scale with kernel data seed @p seed,
 * digest and statically verify each program, under workloads.build /
 * workloads.digest / analysis.verify spans.  Verification errors are
 * reported as failures.
 */
std::vector<drsim::Workload> setupSuite(int scale, std::uint64_t seed,
                                        Report &report,
                                        SetupCounters &counters);

/**
 * simulate() for full-detail points, replayed from its public parts
 * (verifyProgram, Processor construction, run(), statistics
 * collection, checkStaticBounds) under spans, so the traced run can
 * time each layer from outside the simulator.  Must be bit-identical
 * to simulate().
 */
drsim::SimResult replaySimulate(const drsim::CoreConfig &config,
                                const drsim::Workload &workload);

/** Reference digests, one "<key> <digest>" line per point: the sweep
 *  points for kDefaultSeed ("<workload> <spec> <kernel>") and the
 *  fixed default-data subsets checked in every run
 *  ("<workload>:<subset> <spec> <kernel>"). */
class RefDigests
{
  public:
    explicit RefDigests(std::string path) : path_(std::move(path)) {}
    /** Load the file; false when it is missing or malformed. */
    bool load();
    /** Expected digest for a point, or "" when unknown. */
    std::string expected(const std::string &key) const;
    /** Replace every entry of @p workload (including its
     *  "<workload>:<subset>" entries) and rewrite the file. */
    bool rewrite(const std::string &workload,
                 const std::map<std::string, std::string> &digests);

  private:
    std::string path_;
    std::map<std::string, std::string> entries_;
};

/** Layer counters summed over a set of simulated points. */
struct LayerCounters
{
    std::uint64_t points = 0, cycles = 0, committed = 0, executed = 0,
                  squashed = 0, busy = 0, condBranches = 0,
                  mispredicts = 0, loads = 0, loadMisses = 0,
                  mshrRejections = 0, icAccesses = 0, icMisses = 0,
                  fastForwarded = 0, windows = 0, ckptGenerated = 0,
                  ckptReused = 0;
    /** Sampled-run phase times from the simulator's own profile. */
    double acquire = 0.0, warmup = 0.0, window = 0.0;

    void add(const drsim::SimResult &r);
    void merge(const LayerCounters &o);
};

/** num / den, or 0 when den is 0. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Report the core, bpred, memory and checkpoint per-layer metrics of
 * @p c; @p construct and @p run are host seconds spent constructing
 * and running Processor objects (0 where not observable).
 */
void reportSimLayers(Report &report, const LayerCounters &c,
                     double construct, double run);

/** Peak resident set of this process, in MB. */
double peakRssMb();

int runDetailSweep(const Options &opts, Report &report);
int runSampledSweep(const Options &opts, Report &report);
int runServeMix(const Options &opts, Report &report);

/** Component micro-costs recorded in every traced run. */
void runProbes(Report &report);

} // namespace perfbench

#endif // DRSIM_PERFBENCH_BENCH_HH
