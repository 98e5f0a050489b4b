/**
 * @file
 * The detail_sweep and sampled_sweep workloads: fig7's 96 register
 * file x cache configurations over the nine kernels, fanned out over
 * kThreads pool workers, repeated in passes until the time budget is
 * spent.  Full detail runs each point through simulate() (or its
 * traced replay); the sampled sweep runs SMARTS interval sampling
 * through a checkpoint library that is emptied before every pass.
 */

#include <cstdlib>
#include <filesystem>
#include <map>
#include <unistd.h>

#include "bench.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "exp/registry.hh"
#include "metrics.hh"
#include "trace.hh"

using namespace drsim;

namespace perfbench {

namespace {

struct SweepParams
{
    const char *name;
    int scale;
    /** Disabled for the full-detail sweep. */
    SamplingConfig sampling;
};

/** Outcome of one point in one pass. */
struct PointRun
{
    std::string digest;
    double seconds = 0.0;
    std::uint64_t advanced = 0;
    StopReason stop = StopReason::Running;
    LayerCounters counters;
};

struct Point
{
    std::size_t spec;
    std::size_t workload;
};

struct PassStats
{
    double wall = 0.0;
    std::uint64_t advanced = 0;
    std::vector<double> pointMs;
};

std::string
pointKey(const char *workload, const ExperimentSpec &spec,
         const Workload &w)
{
    return std::string(workload) + " " + spec.name + " " + w.spec->name;
}

/** The fixed subset's configuration: paperConfig(4, 96), the
 *  configuration the repository's sampling_validate experiment states
 *  its accuracy for. */
constexpr const char *kFixedSpec = "w4-precise-r96-lockup-free";

/**
 * Checks on the fixed subset — every kernel with its default data
 * (data seed 0, whatever --seed is) under kFixedSpec — so every run
 * compares simulated results against ref_digests.txt:
 *
 *  - full detail (both sweeps): each point's digest equals the
 *    reference "<sweep>:fixed-full kFixedSpec <kernel>";
 *  - sampled sweep: each sampled digest equals "<sweep>:fixed
 *    kFixedSpec <kernel>", and each sampled 95% CI covers the
 *    full-detail IPC.  sampled_ipc_err_pct is the largest
 *    |sampled - full-detail| commit IPC there, in percent, the same in
 *    every run.
 *
 * With --record the digests are collected into @p recorded instead.
 */
void
checkFixedSubset(const char *sweep, const std::vector<ExperimentSpec> &specs,
                 int scale, bool sampled, const RefDigests &refs,
                 bool record, ThreadPool &pool, Report &report,
                 std::map<std::string, std::string> &recorded)
{
    const ExperimentSpec *spec = nullptr;
    for (const ExperimentSpec &s : specs)
        if (s.name == kFixedSpec)
            spec = &s;
    if (spec == nullptr) {
        report.fail(std::string(kFixedSpec) + " not found in the fig7 grid");
        return;
    }
    const std::vector<Workload> suite = buildSpec92Suite(scale);
    CoreConfig full = spec->config;
    full.sampling = SamplingConfig{};
    std::vector<SimResult> fullRes(suite.size()), sampledRes(suite.size());
    std::vector<std::string> error(suite.size());
    std::string ckptDir;
    if (sampled) {
        ckptDir = kOutDir + "/ckpt-" + std::to_string(getpid()) + "-fixed";
        setenv("DRSIM_CKPT_DIR", ckptDir.c_str(), 1);
    }
    pool.parallelFor(suite.size(), [&](std::size_t k) {
        try {
            fullRes[k] = simulate(full, suite[k]);
            if (sampled)
                sampledRes[k] = simulate(spec->config, suite[k]);
        } catch (const std::exception &e) {
            error[k] = e.what();
        }
    });
    if (sampled) {
        unsetenv("DRSIM_CKPT_DIR");
        std::error_code ec;
        std::filesystem::remove_all(ckptDir, ec);
    }

    const auto check = [&](const std::string &key, const SimResult &r) {
        const std::string digest = resultDigest(r);
        if (record) {
            recorded[key] = digest;
            return;
        }
        const std::string want = refs.expected(key);
        report.op(want.empty()        ? key + ": no reference digest"
                  : digest != want    ? key + ": digest differs from the "
                                              "reference"
                                      : "");
    };
    double worstPct = 0.0;
    for (std::size_t k = 0; k < suite.size(); ++k) {
        const std::string what = std::string(" ") + kFixedSpec + " " +
                                 suite[k].spec->name;
        if (!error[k].empty()) {
            report.fail(sweep + what + ": " + error[k]);
            continue;
        }
        check(std::string(sweep) + ":fixed-full" + what, fullRes[k]);
        if (!sampled)
            continue;
        check(std::string(sweep) + ":fixed" + what, sampledRes[k]);
        const SampledStats &s = sampledRes[k].sampled;
        const double ref = fullRes[k].commitIpc();
        const double diff = std::abs(s.ipcEstimate - ref);
        worstPct = std::max(worstPct, 100.0 * ratio(diff, ref));
        report.op(diff > s.ci95 ? what + ": sampled 95% CI misses the "
                                         "full-detail IPC"
                                : "");
    }
    if (sampled) {
        report.note("sampled_ipc_err_pct", worstPct, "%", suite.size());
        report.layer("sim.sampled_ipc_err_pct", worstPct, "%", suite.size());
    }
}

int
runSweep(const Options &opts, Report &report, const SweepParams &p)
{
    Tracer &tracer = Tracer::instance();
    const bool sampled = p.sampling.enabled();

    // Set-up, repeated: build, digest and verify the suite, expand
    // the fig7 grid.  setup_s is the median repetition.
    std::vector<double> setupTimes;
    std::vector<Workload> suite;
    std::vector<ExperimentSpec> specs;
    SetupCounters setupCounters;
    exp::RunContext ctx;
    ctx.scale = p.scale;
    ctx.jobs = kThreads;
    ctx.sampling = p.sampling;
    tracer.setEnabled(opts.trace);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        Span span("setup");
        suite = setupSuite(p.scale, opts.seed, report, setupCounters);
        specs = exp::expandExperiment(*exp::findExperiment("fig7"), ctx);
        setupTimes.push_back(since(t0));
    }
    if (!opts.trace)
        report.e2e("setup_s", median(setupTimes), "s", kSetupReps);
    // Prime simulate()'s verification memo so pass 0 is not charged
    // for it (set-up already timed the analysis itself).
    for (const Workload &w : suite)
        verifyProgram(w.program);

    std::vector<Point> points;
    for (std::size_t s = 0; s < specs.size(); ++s)
        for (std::size_t w = 0; w < suite.size(); ++w)
            points.push_back({s, w});
    Rng rng(opts.seed * 0x9e3779b97f4a7c15ull + 17);
    for (std::size_t i = points.size(); i > 1; --i)
        std::swap(points[i - 1], points[rng.below(i)]);

    RefDigests refs(std::string(DRSIM_PERFBENCH_DIR) + "/ref_digests.txt");
    if (!opts.record && !refs.load())
        report.fail("cannot read the reference digests");
    // Every point of the sweep has a reference for the default seed.
    const bool haveRefs = !opts.record && opts.seed == kDefaultSeed;

    ThreadPool pool(kThreads);
    std::vector<PointRun> pass0;
    std::vector<PassStats> untraced, traced;
    LayerCounters tracedCounters;
    const auto start = std::chrono::steady_clock::now();
    for (int pass = 0;; ++pass) {
        // In a traced run passes 0 and 1 stay untraced: pass 0 is the
        // simulate() reference the traced replay must match bit for
        // bit, pass 1 (warm, like the traced passes) the baseline for
        // trace.overhead_frac.
        const bool tracePass = opts.trace && pass > 1;
        tracer.setEnabled(tracePass);
        std::string ckptDir;
        if (sampled) {
            ckptDir = kOutDir + "/ckpt-" + std::to_string(getpid()) +
                      "-" + std::to_string(pass);
            setenv("DRSIM_CKPT_DIR", ckptDir.c_str(), 1);
        }
        std::vector<PointRun> runs(points.size());
        PassStats ps;
        const auto t0 = std::chrono::steady_clock::now();
        {
            Span passSpan("sweep.pass");
            const std::uint64_t parent = passSpan.id();
            pool.parallelFor(points.size(), [&](std::size_t i) {
                const Point &pt = points[i];
                const ExperimentSpec &spec = specs[pt.spec];
                const Workload &w = suite[pt.workload];
                PointRun &run = runs[i];
                const auto p0 = std::chrono::steady_clock::now();
                SimResult r;
                try {
                    Span span("sim.point", parent, i + 1);
                    if (tracePass && !sampled) {
                        r = replaySimulate(spec.config, w);
                    } else {
                        Span sim("sim.simulate");
                        r = simulate(spec.config, w);
                    }
                } catch (const std::exception &e) {
                    run.digest = std::string("error: ") + e.what();
                }
                run.seconds = since(p0);
                if (run.digest.empty())
                    run.digest = resultDigest(r);
                run.advanced = advancedInsts(r.proc.committed,
                                             r.sampled.fastForwarded);
                run.stop = r.stopReason;
                run.counters.add(r);
            });
        }
        ps.wall = since(t0);
        if (sampled) {
            unsetenv("DRSIM_CKPT_DIR");
            std::error_code ec;
            std::filesystem::remove_all(ckptDir, ec);
        }

        for (std::size_t i = 0; i < points.size(); ++i) {
            const PointRun &run = runs[i];
            const std::string key =
                pointKey(p.name, specs[points[i].spec],
                         suite[points[i].workload]);
            std::string problem;
            if (run.digest.rfind("error: ", 0) == 0)
                problem = key + ": " + run.digest;
            else if (run.stop != StopReason::Halted)
                problem = key + ": run did not halt";
            else if (pass > 0 && run.digest != pass0[i].digest)
                problem = key + (tracePass && !sampled
                                     ? ": traced replay differs from "
                                       "simulate()"
                                     : ": digest differs between passes");
            else if (pass == 0 && haveRefs &&
                     run.digest != refs.expected(key))
                problem = key + ": digest differs from the reference";
            report.op(problem);
            ps.advanced += run.advanced;
            ps.pointMs.push_back(run.seconds * 1e3);
            if (tracePass && traced.empty())
                tracedCounters.merge(run.counters);
        }
        (tracePass ? traced : untraced).push_back(std::move(ps));
        if (pass == 0)
            pass0 = std::move(runs);

        const bool enough = opts.trace ? !traced.empty() : true;
        if (enough && since(start) >= opts.seconds)
            break;
    }
    tracer.setEnabled(false);
    // Before the checks below, which simulate more points.
    const double peakRss = peakRssMb();

    std::map<std::string, std::string> recorded;
    checkFixedSubset(p.name, specs, p.scale, sampled, refs, opts.record,
                     pool, report, recorded);
    if (opts.record) {
        for (std::size_t i = 0; i < points.size(); ++i)
            recorded[pointKey(p.name, specs[points[i].spec],
                              suite[points[i].workload])] = pass0[i].digest;
        if (!refs.rewrite(p.name, recorded))
            report.fail("cannot write reference digests");
    }

    // Spot check in every run: the traced replay of one point per
    // kernel must be bit-identical to simulate() (full detail only;
    // sampled points are checked against full detail below).
    if (!sampled && !opts.trace) {
        for (std::size_t w = 0; w < suite.size(); ++w) {
            const std::size_t s = std::size_t(rng.below(specs.size()));
            const SimResult r = replaySimulate(specs[s].config, suite[w]);
            std::size_t idx = 0;
            while (points[idx].spec != s || points[idx].workload != w)
                ++idx;
            report.op(resultDigest(r) == pass0[idx].digest
                          ? ""
                          : pointKey(p.name, specs[s], suite[w]) +
                                ": traced replay differs from "
                                "simulate()");
        }
    }

    std::uint64_t digestAll = 0;
    for (const PointRun &r : pass0)
        digestAll = digestAll * 1099511628211ull ^
                    std::strtoull(r.digest.c_str(), nullptr, 16);
    std::printf("digest %s seed=%llu points=%zu sweep=%016llx\n", p.name,
                static_cast<unsigned long long>(opts.seed), points.size(),
                static_cast<unsigned long long>(digestAll));

    const auto summarize = [&](const std::vector<PassStats> &passes,
                               std::vector<double> &ms,
                               std::vector<double> &mips,
                               std::vector<double> &rate) {
        for (const PassStats &ps : passes) {
            ms.insert(ms.end(), ps.pointMs.begin(), ps.pointMs.end());
            mips.push_back(simMips(ps.advanced, ps.wall));
            rate.push_back(double(ps.pointMs.size()) / ps.wall);
        }
    };
    std::vector<double> ms, mips, rate;
    summarize(untraced, ms, mips, rate);
    for (const PassStats &ps : untraced)
        std::printf("pass   untraced wall_s=%.4f mips=%.4f\n", ps.wall,
                    simMips(ps.advanced, ps.wall));
    for (const PassStats &ps : traced)
        std::printf("pass   traced   wall_s=%.4f mips=%.4f\n", ps.wall,
                    simMips(ps.advanced, ps.wall));
    if (!opts.trace) {
        // Point percentiles over each point's mean across the passes.
        std::vector<std::vector<double>> perPass;
        for (const PassStats &ps : untraced)
            perPass.push_back(ps.pointMs);
        const std::vector<double> pointMs = meanOverPasses(perPass);
        report.e2e("sim_mips", median(mips), "MIPS", mips.size());
        report.e2e("op_p50_ms", nearestRank(pointMs, 0.5), "ms",
                   pointMs.size());
        if (auto p90 = reportablePercentile(pointMs, 0.9))
            report.e2e("op_p90_ms", *p90, "ms", pointMs.size());
        else
            report.fail("too few points for a p90");
        report.e2e("ops_per_s", median(rate), "1/s", rate.size());
        report.e2e("peak_rss_mb", peakRss, "MB", 1);
        report.note("passes", double(untraced.size()), "count",
                    untraced.size());
        return 0;
    }

    // Traced run: per-layer figures.  Times are per traced pass (or
    // per set-up repetition); counts come from one traced pass.
    std::vector<double> tms, tmips, trate;
    summarize(traced, tms, tmips, trate);
    double twall = 0.0;
    for (const PassStats &ps : traced)
        twall += ps.wall;
    const double np = double(traced.size());
    const auto spans = tracer.totals();
    const auto total = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.seconds;
    };
    reportSetupLayers(report, setupCounters, kSetupReps);
    report.layer("analysis.bounds_gate_s",
                 total("analysis.bounds_gate") / np, "s", traced.size());
    const LayerCounters &c = tracedCounters;
    const double coreRun =
        sampled ? (c.warmup + c.window) : total("core.run") / np;
    reportSimLayers(report, c, total("core.construct") / np, coreRun);
    report.layer("sim.ckpt_hit_frac",
                 sampled ? ratio(double(c.ckptReused), double(points.size()))
                         : 0.0,
                 "ratio", sampled ? points.size() : 0);
    double pointSum = 0.0;
    for (double v : tms)
        pointSum += v / 1e3;
    report.layer("sim.simulate_s", pointSum / np, "s", tms.size());
    report.layer("sim.point_p50_ms", nearestRank(tms, 0.5), "ms",
                 tms.size());
    report.layer("sim.point_p90_ms",
                 reportablePercentile(tms, 0.9).value_or(0.0), "ms",
                 tms.size());
    report.layer("sim.worker_util", ratio(pointSum, twall * kThreads),
                 "ratio", tms.size());
    report.layer("trace.overhead_frac",
                 ratio(mips.back(), median(tmips)) - 1.0,
                 "ratio", traced.size());
    return 0;
}

} // namespace

int
runDetailSweep(const Options &opts, Report &report)
{
    return runSweep(opts, report, {"detail_sweep", 2, SamplingConfig{}});
}

int
runSampledSweep(const Options &opts, Report &report)
{
    // The repository's default sampling spec (DRSIM_SAMPLE_BENCH):
    // whole-gap functional warming between windows.
    SamplingConfig sc;
    sc.interval = 40000;
    sc.window = 1000;
    sc.warmup = 4000;
    return runSweep(opts, report, {"sampled_sweep", 40, sc});
}

} // namespace perfbench
