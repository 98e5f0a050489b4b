#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/analysis.hh"
#include "bench.hh"
#include "bpred/predictor.hh"
#include "common/random.hh"
#include "memory/cache.hh"
#include "metrics.hh"
#include "serve/result_io.hh"
#include "trace.hh"
#include "workloads/digest.hh"
#include "workloads/emulator.hh"

using namespace drsim;

namespace perfbench {

void
Report::op(const std::string &problem)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (problem.empty())
        return;
    ++failed_;
    if (problems_.size() < 20)
        problems_.push_back(problem);
}

void
Report::fail(const std::string &problem)
{
    op(problem.empty() ? "unspecified failure" : problem);
}

namespace {

void
put(std::vector<std::pair<std::string, Metric>> &to,
    const std::string &name, double value, const char *unit,
    std::uint64_t samples)
{
    if (!std::isfinite(value))
        value = 0.0;
    for (auto &[n, m] : to) {
        if (n == name) {
            m = {value, unit, samples};
            return;
        }
    }
    to.push_back({name, {value, unit, samples}});
}

} // namespace

void
Report::e2e(const std::string &name, double value, const char *unit,
            std::uint64_t samples)
{
    std::lock_guard<std::mutex> lock(mutex_);
    put(e2e_, name, value, unit, samples);
}

void
Report::layer(const std::string &name, double value, const char *unit,
              std::uint64_t samples)
{
    std::lock_guard<std::mutex> lock(mutex_);
    put(layer_, name, value, unit, samples);
}

void
Report::note(const std::string &name, double value, const char *unit,
             std::uint64_t samples)
{
    std::lock_guard<std::mutex> lock(mutex_);
    put(notes_, name, value, unit, samples);
}

void
Report::notePercentile(const std::string &name,
                       const std::vector<double> &v, double p)
{
    const auto value = reportablePercentile(v, p);
    std::lock_guard<std::mutex> lock(mutex_);
    if (value) {
        put(notes_, name, *value, "ms", v.size());
    } else {
        // Withheld: fewer than kMinBeyond samples beyond it.
        put(notes_, name + " (withheld)", 0.0, "ms", v.size());
    }
}

void
Report::declare(bool trace, const MetricDecl *decls, std::size_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &list = trace ? layer_ : e2e_;
    std::vector<std::pair<std::string, Metric>> ordered;
    for (std::size_t i = 0; i < n; ++i) {
        Metric m{0.0, decls[i].unit, 0};
        for (const auto &[name, have] : list)
            if (name == decls[i].name)
                m = have;
        ordered.push_back({decls[i].name, m});
    }
    list = std::move(ordered);
}

bool
Report::correct() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_ == 0 && attempted_ > 0;
}

void
Report::print(bool trace) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto lines = [](const char *kind, const auto &list) {
        for (const auto &[name, m] : list) {
            std::printf("%-6s %-28s %16.6f %-6s n=%llu\n", kind,
                        name.c_str(), m.value, m.unit.c_str(),
                        static_cast<unsigned long long>(m.samples));
        }
    };
    lines("e2e", e2e_);
    lines("info", notes_);
    lines("layer", layer_);
    std::printf("ops    attempted=%llu failed=%llu fail_frac=%.6f\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                failFrac(failed_, attempted_));
    for (const std::string &p : problems_)
        std::printf("FAIL   %s\n", p.c_str());

    const auto &list = trace ? layer_ : e2e_;
    std::string json = "{\"correct\": ";
    json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : list) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
        json += first ? "" : ", ";
        json += "\"" + name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

std::string
resultDigest(const SimResult &r)
{
    return fnv1aHex(serve::pointRecordJson(r));
}

std::vector<Workload>
setupSuite(int scale, std::uint64_t seed, Report &report,
           SetupCounters &counters)
{
    std::vector<Workload> suite;
    for (const WorkloadSpec &spec : spec92Specs()) {
        {
            Span span("workloads.build");
            suite.push_back({&spec, spec.maker(scale, seed)});
        }
        ++counters.builds;
        const Program &prog = suite.back().program;
        {
            // finalize() already computed the digest inside the build;
            // this times what every cache lookup pays for it.
            Span span("workloads.digest");
            if (programDigest(prog).empty())
                report.fail(spec.name + ": empty program digest");
        }
        analysis::Report findings;
        {
            Span span("analysis.verify");
            findings = analysis::analyzeProgram(prog);
        }
        ++counters.verifies;
        if (findings.hasErrors())
            report.fail(spec.name + ": static verification failed: " +
                        findings.summary());
    }
    return suite;
}

void
reportSetupLayers(Report &report, const SetupCounters &counters, int reps)
{
    const auto spans = Tracer::instance().totals();
    const auto perRep = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.seconds / reps;
    };
    const auto n = std::uint64_t(reps);
    report.layer("workloads.build_s", perRep("workloads.build"), "s", n);
    report.layer("workloads.build_calls", double(counters.builds) / reps,
                 "count", n);
    report.layer("workloads.digest_s", perRep("workloads.digest"), "s", n);
    report.layer("analysis.verify_s", perRep("analysis.verify"), "s", n);
    report.layer("analysis.verify_calls", double(counters.verifies) / reps,
                 "count", n);
}

SimResult
replaySimulate(const CoreConfig &config, const Workload &workload)
{
    {
        Span span("sim.verify");
        verifyProgram(workload.program);
    }
    std::unique_ptr<Processor> proc;
    {
        Span span("core.construct");
        proc = std::make_unique<Processor>(config, workload.program);
    }
    {
        Span span("core.run");
        proc->run();
    }
    SimResult res;
    res.workload = workload.spec->name;
    res.fpIntensive = workload.spec->fpIntensive;
    res.stopReason = proc->stopReason();
    res.proc = proc->stats();
    res.dcache = proc->dcache().stats();
    res.icacheAccesses = proc->icache().accesses();
    res.icacheMisses = proc->icache().misses();
    res.loadMissRate = proc->loadMissRate();
    for (int c = 0; c < kNumRegClasses; ++c)
        res.lifetime[c] = proc->rename().lifetimeHistogram(RegClass(c));
    {
        Span span("analysis.bounds_gate");
        checkStaticBounds(config, workload.program, res);
    }
    return res;
}

bool
RefDigests::load()
{
    std::ifstream in(path_);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t cut = line.rfind(' ');
        if (cut == std::string::npos)
            return false;
        entries_[line.substr(0, cut)] = line.substr(cut + 1);
    }
    return true;
}

std::string
RefDigests::expected(const std::string &key) const
{
    const auto it = entries_.find(key);
    return it == entries_.end() ? "" : it->second;
}

bool
RefDigests::rewrite(const std::string &workload,
                    const std::map<std::string, std::string> &digests)
{
    load();
    for (auto it = entries_.begin(); it != entries_.end();) {
        // "<workload> ..." and "<workload>:<subset> ..." keys.
        const std::string head = it->first.substr(0, it->first.find(' '));
        if (head == workload || head.rfind(workload + ":", 0) == 0)
            it = entries_.erase(it);
        else
            ++it;
    }
    for (const auto &[key, digest] : digests)
        entries_[key] = digest;
    std::ofstream out(path_);
    out << "# Per-point statistics digests (fnv1a of the point record) "
           "for seed "
        << kDefaultSeed << ".\n# Regenerate: drsim_perfbench --record "
                           "--workload <name> --seed "
        << kDefaultSeed << "\n";
    for (const auto &[key, digest] : entries_)
        out << key << ' ' << digest << '\n';
    return bool(out);
}

void
LayerCounters::add(const SimResult &r)
{
    ++points;
    cycles += r.proc.cycles;
    committed += r.proc.committed;
    executed += r.proc.executed;
    squashed += r.proc.squashedInsts;
    busy += r.proc.busyCycles();
    condBranches += r.proc.executedCondBranches;
    mispredicts += r.proc.mispredictedBranches;
    loads += r.dcache.loads;
    loadMisses += r.dcache.loadMisses;
    mshrRejections += r.dcache.mshrRejections;
    icAccesses += r.icacheAccesses;
    icMisses += r.icacheMisses;
    fastForwarded += r.sampled.fastForwarded;
    windows += r.sampled.windows;
    ckptGenerated += r.profile.ckptGenerated;
    if (r.sampled.enabled && r.profile.ckptGenerated == 0)
        ++ckptReused;
    acquire += r.profile.acquireSeconds;
    warmup += r.profile.warmupSeconds;
    window += r.profile.windowSeconds;
}

void
LayerCounters::merge(const LayerCounters &o)
{
    points += o.points;
    cycles += o.cycles;
    committed += o.committed;
    executed += o.executed;
    squashed += o.squashed;
    busy += o.busy;
    condBranches += o.condBranches;
    mispredicts += o.mispredicts;
    loads += o.loads;
    loadMisses += o.loadMisses;
    mshrRejections += o.mshrRejections;
    icAccesses += o.icAccesses;
    icMisses += o.icMisses;
    fastForwarded += o.fastForwarded;
    windows += o.windows;
    ckptGenerated += o.ckptGenerated;
    ckptReused += o.ckptReused;
    acquire += o.acquire;
    warmup += o.warmup;
    window += o.window;
}

void
reportSimLayers(Report &report, const LayerCounters &c, double construct,
                double run)
{
    const auto d = [](std::uint64_t v) { return double(v); };
    report.layer("core.construct_s", construct, "s", c.points);
    report.layer("core.run_s", run, "s", c.points);
    report.layer("core.ns_per_cycle", ratio(run * 1e9, d(c.cycles)), "ns",
                 c.cycles);
    report.layer("core.ns_per_commit", ratio(run * 1e9, d(c.committed)),
                 "ns", c.committed);
    report.layer("core.useful_frac", ratio(d(c.committed), d(c.executed)),
                 "ratio", c.executed);
    report.layer("core.squash_frac", ratio(d(c.squashed), d(c.executed)),
                 "ratio", c.executed);
    report.layer("core.stall_frac",
                 c.cycles ? 1.0 - ratio(d(c.busy), d(c.cycles)) : 0.0,
                 "ratio", c.cycles);
    report.layer("bpred.lookups", d(c.condBranches), "count", c.points);
    report.layer("bpred.mispredict_rate",
                 ratio(d(c.mispredicts), d(c.condBranches)), "ratio",
                 c.condBranches);
    report.layer("memory.dcache_loads", d(c.loads), "count", c.points);
    report.layer("memory.dcache_miss_rate",
                 ratio(d(c.loadMisses), d(c.loads)), "ratio", c.loads);
    report.layer("memory.mshr_rejections", d(c.mshrRejections), "count",
                 c.points);
    report.layer("memory.icache_miss_rate",
                 ratio(d(c.icMisses), d(c.icAccesses)), "ratio",
                 c.icAccesses);
    report.layer("sim.ckpt_acquire_s", c.acquire, "s", c.points);
    report.layer("sim.warmup_s", c.warmup, "s", c.points);
    report.layer("sim.window_s", c.window, "s", c.points);
    report.layer("sim.ckpt_hits", d(c.ckptReused), "count", c.points);
    report.layer("sim.ckpt_generated", d(c.ckptGenerated), "count",
                 c.points);
    report.layer("sim.fast_forwarded", d(c.fastForwarded), "count",
                 c.points);
    report.layer("sim.windows", d(c.windows), "count", c.points);
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

namespace {

/** Median seconds of @p reps calls of @p fn. */
template <typename Fn>
double
medianSeconds(int reps, Fn &&fn)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        t.push_back(since(t0));
    }
    return median(t);
}

} // namespace

void
runProbes(Report &report)
{
    constexpr int kReps = 3;
    constexpr std::uint64_t kPredOps = 2'000'000;
    constexpr std::uint64_t kLoads = 2'000'000;
    constexpr std::uint64_t kSteps = 2'000'000;
    constexpr std::uint64_t kFfInsts = 20'000'000;
    std::uint64_t sink = 0;

    const double pred_s = medianSeconds(kReps, [&] {
        Span span("probe.bpred");
        auto pred = makeBranchPredictor("mcfarling");
        Rng rng(1);
        Addr pc = 0x1000;
        for (std::uint64_t i = 0; i < kPredOps; ++i) {
            const std::uint64_t h = pred->history();
            const bool p = pred->predictAndUpdateHistory(pc);
            const bool actual = rng.uniform() < 0.6;
            pred->update(pc, h, actual);
            if (p != actual)
                pred->repairHistory(h, actual);
            pc = 0x1000 + (pc * 29 + 4) % 8192;
            sink += p;
        }
    });
    report.layer("bpred.predict_update_ns", pred_s / kPredOps * 1e9,
                 "ns", kReps);

    const double load_s = medianSeconds(kReps, [&] {
        Span span("probe.memory");
        DataCache cache(CacheKind::LockupFree, CacheConfig{});
        Rng rng(2);
        Cycle now = 1;
        InstUid uid = 1;
        for (std::uint64_t i = 0; i < kLoads; ++i) {
            sink += cache.load(rng.below(1 << 22) * 8, now, uid++).readyCycle;
            now += 2;
        }
    });
    report.layer("memory.access_ns", load_s / kLoads * 1e9, "ns", kReps);

    // The emulator probes time only the stepping, not the Emulator
    // construction (the program-image copy) before it.
    const Program prog = makeEspresso(400);
    std::vector<double> stepMips, ffMips;
    for (int rep = 0; rep < kReps; ++rep) {
        Emulator emu(prog);
        std::uint64_t steps = 0;
        const auto t0 = std::chrono::steady_clock::now();
        {
            Span span("probe.emu_step");
            for (; steps < kSteps && !emu.fetchBlocked(); ++steps)
                sink += emu.stepArch().pc;
        }
        stepMips.push_back(double(steps) / since(t0) / 1e6);
    }
    report.layer("workloads.emu_step_mips", median(stepMips), "MIPS",
                 kReps);
    for (int rep = 0; rep < kReps; ++rep) {
        Emulator emu(prog);
        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t ff = 0;
        {
            Span span("probe.emu_ff");
            ff = emu.fastForward(kFfInsts);
        }
        ffMips.push_back(double(ff) / since(t0) / 1e6);
    }
    report.layer("workloads.emu_ff_mips", median(ffMips), "MIPS", kReps);
    if (sink == 42)
        std::fputs("", stderr);
}

} // namespace perfbench
