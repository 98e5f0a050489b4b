/**
 * @file
 * drsim_perfbench: the repository's benchmark.
 *
 *   drsim_perfbench --workload detail_sweep|sampled_sweep|serve_mix
 *                   [--seed N] [--seconds S] [--trace 0|1] [--record]
 *
 * Untraced runs (--trace 0) measure the end-to-end metrics; traced
 * runs (--trace 1) record spans around the calls into each layer and
 * report the per-layer metrics, writing every span to
 * .bench_build/perfbench/trace-<workload>-<seed>.jsonl.  Every run
 * checks the simulated outputs; any mismatch fails the run.  The last
 * stdout line is one JSON object: correct, attempted, failed, metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.hh"
#include "trace.hh"

using namespace perfbench;

namespace {

/** Printed by every untraced run (BENCHMARK.json "end_to_end"). */
const MetricDecl kEndToEnd[] = {
    {"sim_mips", "MIPS"},  {"setup_s", "s"},     {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},   {"ops_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

/** Printed by every traced run (BENCHMARK.json "per_layer"); a layer
 *  a workload bypasses reads 0. */
const MetricDecl kPerLayer[] = {
    {"workloads.build_s", "s"},
    {"workloads.build_calls", "count"},
    {"workloads.digest_s", "s"},
    {"workloads.emu_ff_mips", "MIPS"},
    {"workloads.emu_step_mips", "MIPS"},
    {"analysis.verify_s", "s"},
    {"analysis.verify_calls", "count"},
    {"analysis.bounds_gate_s", "s"},
    {"core.construct_s", "s"},
    {"core.run_s", "s"},
    {"core.ns_per_cycle", "ns"},
    {"core.ns_per_commit", "ns"},
    {"core.useful_frac", "ratio"},
    {"core.squash_frac", "ratio"},
    {"core.stall_frac", "ratio"},
    {"bpred.lookups", "count"},
    {"bpred.mispredict_rate", "ratio"},
    {"bpred.predict_update_ns", "ns"},
    {"memory.dcache_loads", "count"},
    {"memory.dcache_miss_rate", "ratio"},
    {"memory.mshr_rejections", "count"},
    {"memory.icache_miss_rate", "ratio"},
    {"memory.access_ns", "ns"},
    {"sim.ckpt_acquire_s", "s"},
    {"sim.warmup_s", "s"},
    {"sim.window_s", "s"},
    {"sim.ckpt_hits", "count"},
    {"sim.ckpt_generated", "count"},
    {"sim.ckpt_hit_frac", "ratio"},
    {"sim.fast_forwarded", "count"},
    {"sim.windows", "count"},
    {"sim.sampled_ipc_err_pct", "%"},
    {"sim.simulate_s", "s"},
    {"sim.point_p50_ms", "ms"},
    {"sim.point_p90_ms", "ms"},
    {"sim.worker_util", "ratio"},
    {"serve.ack_ms", "ms"},
    {"serve.first_point_ms", "ms"},
    {"serve.stream_ms", "ms"},
    {"serve.memory_hits", "count"},
    {"serve.disk_hits", "count"},
    {"serve.computed", "count"},
    {"serve.coalesced", "count"},
    {"serve.hit_frac", "ratio"},
    {"serve.errors", "count"},
    {"serve.codec_us", "us"},
    {"trace.overhead_frac", "ratio"},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "drsim_perfbench: %s\nusage: drsim_perfbench --workload "
                 "detail_sweep|sampled_sweep|serve_mix [--seed N] "
                 "[--seconds S] [--trace 0|1] [--record]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--record") {
            opts.record = true;
        } else if (!hasValue) {
            return usage(("missing value for " + arg).c_str());
        } else if (arg == "--workload") {
            opts.workload = argv[++i];
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace") {
            opts.trace = std::strcmp(argv[++i], "0") != 0;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!(opts.seconds > 0.0))
        return usage("--seconds must be positive");
    if (opts.record && opts.seed != kDefaultSeed)
        return usage("--record needs the default seed");

    int (*run)(const Options &, Report &) = nullptr;
    if (opts.workload == "detail_sweep")
        run = runDetailSweep;
    else if (opts.workload == "sampled_sweep")
        run = runSampledSweep;
    else if (opts.workload == "serve_mix")
        run = runServeMix;
    else
        return usage(("unknown workload '" + opts.workload + "'").c_str());

    std::error_code ec;
    std::filesystem::create_directories(kOutDir, ec);

    Report report;
    try {
        run(opts, report);
        if (opts.trace) {
            Tracer::instance().setEnabled(true);
            runProbes(report);
            Tracer::instance().setEnabled(false);
        }
    } catch (const std::exception &e) {
        report.fail(std::string("benchmark aborted: ") + e.what());
    }

    if (opts.trace) {
        Tracer &tracer = Tracer::instance();
        const std::string path = kOutDir + "/trace-" + opts.workload +
                                 "-" + std::to_string(opts.seed) + ".jsonl";
        if (!tracer.writeJsonl(path))
            report.fail("cannot write " + path);
        std::printf("trace  %zu spans -> %s\n", tracer.size(),
                    path.c_str());
        for (const auto &[name, t] : tracer.totals()) {
            std::printf("span   %-24s calls=%-8llu total_s=%.6f "
                        "self_s=%.6f\n",
                        name.c_str(),
                        static_cast<unsigned long long>(t.count),
                        t.seconds, t.selfSeconds);
        }
    }

    // Every declared metric appears in the JSON line, in declared
    // order; a layer the workload bypasses reads 0.
    if (opts.trace)
        report.declare(true, kPerLayer, std::size(kPerLayer));
    else
        report.declare(false, kEndToEnd, std::size(kEndToEnd));
    report.print(opts.trace);
    return report.correct() ? 0 : 1;
}
