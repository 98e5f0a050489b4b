/**
 * @file
 * The serve_mix workload: an in-process serve::Server on loopback,
 * driven by a closed loop of kClients clients (each sends its next
 * request only after the previous one completes).  Server workers
 * plus clients use kThreads threads.  Each client draws its requests
 * from a seeded script built in blocks of ten: six warm repeats of a
 * pre-computed one-point spec, three cold one-point specs with a
 * configuration no earlier request used, and one malformed line that
 * must be answered with its typed error code.  Requests run at scale
 * 20, the scale at which warm serving was found to be dominated by the
 * server's program rebuild.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "exp/spec_file.hh"
#include "metrics.hh"
#include "serve/result_io.hh"
#include "serve/server.hh"
#include "trace.hh"
#include "workloads/digest.hh"

using namespace drsim;

namespace perfbench {

namespace {

struct Cfg
{
    int regs;
    int dq;
};

constexpr int kServeScale = 20;
constexpr int kServerJobs = 2;
constexpr int kClients = kThreads - kServerJobs;
constexpr std::size_t kWarmConfigs = 6;
/** Warm configuration 0 in every run, whatever the seed: its served
 *  results are checked against ref_digests.txt. */
constexpr Cfg kAnchor{128, 32};
/** Cold configurations re-simulated directly after the loop. */
constexpr std::size_t kColdChecks = 3;
/** Well-formed requests the untraced loop waits for, so that ten
 *  samples lie beyond the reported p90. */
constexpr std::size_t kMinSamples = 100;
constexpr int kReplyTimeoutSeconds = 60;

/** One blocking NDJSON connection to the server. */
class Conn
{
  public:
    explicit Conn(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            return;
        timeval tv{kReplyTimeoutSeconds, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(std::uint16_t(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    bool ok() const { return fd_ >= 0; }

    bool
    send(const std::string &line)
    {
        const std::string msg = line + "\n";
        std::size_t off = 0;
        while (off < msg.size()) {
            const ssize_t n = ::send(fd_, msg.data() + off,
                                     msg.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            off += std::size_t(n);
        }
        return true;
    }

    /** Next reply line; false on timeout or a closed connection. */
    bool
    recv(std::string &line)
    {
        for (;;) {
            const std::size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return true;
            }
            char chunk[65536];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n <= 0)
                return false;
            buf_.append(chunk, std::size_t(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

std::string
specJson(const std::string &name, Cfg c)
{
    return "{\"name\":\"" + name +
           "\",\"axes\":{\"width\":[4],\"regs\":[" +
           std::to_string(c.regs) + "],\"dq\":[" + std::to_string(c.dq) +
           "]}}";
}

std::string
runLine(const std::string &id, const std::string &name, Cfg c)
{
    return "{\"verb\":\"run\",\"id\":\"" + id + "\",\"spec\":" +
           specJson(name, c) +
           ",\"scale\":" + std::to_string(kServeScale) + "}";
}

/** Reference-digest key of a served point. */
std::string
refKey(Cfg c, const std::string &workload)
{
    return "serve_mix regs" + std::to_string(c.regs) + "-dq" +
           std::to_string(c.dq) + " " + workload;
}

/** The configuration the server derives from specJson(). */
CoreConfig
configOf(Cfg c)
{
    const exp::SweepSpec spec =
        exp::parseSweepSpec(specJson("direct", c));
    return exp::expandGrid(exp::toGrid(spec)).at(0).config;
}

struct Malformed
{
    const char *line;
    const char *code;
};

const Malformed kMalformed[] = {
    {R"({"verb":"run","id":"m","experiment":"fig7","jobs":2})",
     "jobs-not-allowed"},
    {R"({"verb":"fly","id":"m"})", "unknown-verb"},
    {R"({"verb":"run","id":"m")", "bad-json"},
    {R"({"verb":"run","id":"m","experiment":"fig77"})",
     "unknown-experiment"},
    {R"({"verb":"run","id":"m","experiment":"simspeed"})",
     "custom-experiment"},
    {R"({"verb":"run","id":"m","spec":{"name":"x","axes":{"bogus":[1]}}})",
     "bad-spec"},
    {R"({"verb":"run","id":"m","experiment":"fig7","colour":1})",
     "bad-request"},
};

enum class Kind { Warm, Cold, Malformed };

/** What one request/reply exchange produced. */
struct Exchange
{
    Kind kind = Kind::Warm;
    std::string problem;
    double ackMs = 0.0, firstMs = 0.0, doneMs = 0.0;
    /** Cold configurations: index into the configuration pool. */
    std::size_t cfgIndex = 0;
    /** (workload, digest) of every point record received. */
    std::vector<std::pair<std::string, std::string>> digests;
    std::uint64_t advanced = 0;
    std::uint64_t records = 0;
    double codecSeconds = 0.0;
    LayerCounters computed;
    bool errorReply = false;
};

/**
 * Send @p line and read replies up to `done` or `error`.  Point
 * records are decoded and digested (the client-side codec).
 */
Exchange
exchange(Conn &conn, const std::string &line, const std::string &id,
         std::size_t expectPoints)
{
    static std::atomic<std::uint64_t> requests{0};
    Exchange ex;
    // Every span of one exchange shares the request id.
    Span root("serve.request", ~0ull, requests.fetch_add(1) + 1);
    std::optional<Span> stage;
    stage.emplace("serve.ack");
    const auto t0 = std::chrono::steady_clock::now();
    if (!conn.send(line)) {
        ex.problem = "send failed";
        return ex;
    }
    std::string reply;
    for (;;) {
        if (!conn.recv(reply)) {
            ex.problem = "no reply (timeout or connection closed)";
            return ex;
        }
        json::Value v;
        try {
            v = json::parse(reply);
        } catch (const std::exception &e) {
            ex.problem = std::string("unparsable reply: ") + e.what();
            return ex;
        }
        const json::Value *kind = v.find("reply");
        const json::Value *rid = v.find("id");
        if (kind == nullptr || !kind->isString()) {
            ex.problem = "reply without a kind";
            return ex;
        }
        const std::string k = kind->asString();
        if (k == "error") {
            ex.errorReply = true;
            ex.problem = v.at("code").asString();
            ex.doneMs = since(t0) * 1e3;
            return ex;
        }
        if (rid == nullptr || rid->asString() != id) {
            ex.problem = "reply for another request";
            return ex;
        }
        if (k == "ack") {
            ex.ackMs = since(t0) * 1e3;
            stage.emplace("serve.first_point");
            if (v.at("points").asU64() != expectPoints) {
                ex.problem = "ack announces the wrong point count";
                return ex;
            }
        } else if (k == "point") {
            if (ex.records == 0) {
                ex.firstMs = since(t0) * 1e3;
                stage.emplace("serve.stream");
            }
            ++ex.records;
            const auto c0 = std::chrono::steady_clock::now();
            SimResult r;
            {
                Span codec("serve.codec");
                r = serve::parsePointRecord(v.at("result"));
            }
            ex.codecSeconds += since(c0);
            ex.digests.push_back(
                {v.at("workload").asString(), resultDigest(r)});
            if (!v.at("cache_hit").asBool() &&
                !v.at("coalesced").asBool()) {
                ex.advanced += advancedInsts(r.proc.committed,
                                             r.sampled.fastForwarded);
                ex.computed.add(r);
            }
        } else if (k == "done") {
            ex.doneMs = since(t0) * 1e3;
            if (ex.records != expectPoints)
                ex.problem = "done after " + std::to_string(ex.records) +
                             " of " + std::to_string(expectPoints) +
                             " points";
            return ex;
        } else {
            ex.problem = "unexpected reply '" + k + "'";
            return ex;
        }
    }
}

/** Running server plus the thread blocked in its accept loop. */
struct LiveServer
{
    std::unique_ptr<serve::Server> server;
    std::thread thread;
    std::string cacheDir;

    ~LiveServer() { stop(); }

    void
    stop()
    {
        if (!server)
            return;
        server->requestStop();
        if (thread.joinable())
            thread.join();
        server.reset();
        std::error_code ec;
        std::filesystem::remove_all(cacheDir, ec);
    }
};

/** Per-phase results of the closed loop. */
struct Phase
{
    double wall = 0.0;
    std::vector<Exchange> exchanges;
    serve::SweepService::Stats before, after;
};

struct Mix
{
    const std::vector<Workload> *suite = nullptr;
    std::vector<Cfg> pool;
    /** Direct simulate() digest per warm config and workload name. */
    std::vector<std::map<std::string, std::string>> warmRef;
    std::atomic<std::size_t> nextCold{kWarmConfigs};
};

void
clientLoop(int client, int port, std::uint64_t seed, Mix &mix,
           double seconds, std::size_t minSamples,
           std::atomic<std::size_t> &wellFormed,
           std::chrono::steady_clock::time_point start,
           std::vector<Exchange> &out)
{
    Conn conn(port);
    if (!conn.ok()) {
        Exchange ex;
        ex.problem = "cannot connect";
        out.push_back(ex);
        return;
    }
    Rng rng(seed * 0x2545f4914f6cdd1dull + std::uint64_t(client) + 1);
    std::vector<Kind> block;
    // A slow host gets twice the time (plus slack) to reach
    // minSamples; the run must end well inside run.py's timeout.
    const double cap = seconds * 2.0 + 30.0;
    for (std::uint64_t n = 0;; ++n) {
        const double t = since(start);
        if ((t >= seconds && wellFormed.load() >= minSamples) || t >= cap)
            break;
        if (block.empty()) {
            block.assign(6, Kind::Warm);
            block.insert(block.end(), 3, Kind::Cold);
            block.push_back(Kind::Malformed);
            for (std::size_t i = block.size(); i > 1; --i)
                std::swap(block[i - 1], block[rng.below(i)]);
        }
        const Kind kind = block.back();
        block.pop_back();
        const std::string id =
            "c" + std::to_string(client) + "-" + std::to_string(n);
        Exchange ex;
        if (kind == Kind::Malformed) {
            const Malformed &m =
                kMalformed[rng.below(std::size(kMalformed))];
            ex = exchange(conn, m.line, "m", 0);
            ex.problem = ex.errorReply && ex.problem == m.code
                             ? ""
                             : std::string("expected error '") + m.code +
                                   "', got '" + ex.problem + "'";
        } else if (kind == Kind::Warm) {
            const std::size_t w = rng.below(kWarmConfigs);
            ex = exchange(conn, runLine(id, "warm" + std::to_string(w),
                                        mix.pool[w]),
                          id, mix.suite->size());
            for (const auto &[wl, digest] : ex.digests) {
                if (ex.problem.empty() && mix.warmRef[w].at(wl) != digest)
                    ex.problem = "served " + wl +
                                 " differs from direct simulate()";
            }
            if (ex.problem.empty() && ex.advanced != 0)
                ex.problem = "warm repeat was not a cache hit";
        } else {
            const std::size_t c = mix.nextCold.fetch_add(1);
            if (c >= mix.pool.size()) {
                ex.problem = "cold configuration pool exhausted";
            } else {
                ex = exchange(conn, runLine(id, "cold" + std::to_string(c),
                                            mix.pool[c]),
                              id, mix.suite->size());
                ex.cfgIndex = c;
                if (ex.problem.empty() && ex.advanced == 0)
                    ex.problem = "cold point served from a cache";
            }
        }
        ex.kind = kind;
        if (ex.problem.empty() && kind != Kind::Malformed)
            wellFormed.fetch_add(1);
        const bool broken = !ex.problem.empty() && !ex.errorReply;
        out.push_back(std::move(ex));
        if (broken)
            break; // the connection's reply stream is out of step
    }
}

Phase
runPhase(serve::Server &server, int port, std::uint64_t seed, Mix &mix,
         double seconds, std::size_t minSamples)
{
    Phase ph;
    ph.before = server.service().stats();
    std::atomic<std::size_t> wellFormed{0};
    std::vector<std::vector<Exchange>> outs(kClients);
    const auto start = std::chrono::steady_clock::now();
    {
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                clientLoop(c, port, seed, mix, seconds, minSamples,
                           wellFormed, start, outs[std::size_t(c)]);
            });
        for (std::thread &t : clients)
            t.join();
    }
    ph.wall = since(start);
    ph.after = server.service().stats();
    for (auto &o : outs)
        for (Exchange &ex : o)
            ph.exchanges.push_back(std::move(ex));
    return ph;
}

void
startServer(LiveServer &live, const std::string &dir)
{
    serve::ServerOptions so;
    so.cacheDir = dir;
    so.jobs = kServerJobs;
    so.scale = kServeScale;
    live.cacheDir = dir;
    live.server = std::make_unique<serve::Server>(so);
    live.server->start();
    serve::Server *srv = live.server.get();
    live.thread = std::thread([srv] { srv->serve(); });
}

} // namespace

int
runServeMix(const Options &opts, Report &report)
{
    Tracer &tracer = Tracer::instance();
    tracer.setEnabled(opts.trace);

    // Set-up, repeated: build, digest and verify the programs, start
    // the server, and get the first reply to a ping.
    const std::string base =
        kOutDir + "/serve-" + std::to_string(getpid());
    std::vector<double> setupTimes;
    std::vector<Workload> suite;
    SetupCounters setupCounters;
    LiveServer live;
    int port = 0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        live.stop();
        const auto t0 = std::chrono::steady_clock::now();
        {
            Span span("setup");
            // The protocol has no data-seed field: the server always
            // builds the default-data kernels.
            suite = setupSuite(kServeScale, 0, report, setupCounters);
            startServer(live, base + "-" + std::to_string(rep));
            port = live.server->port();
            Conn conn(port);
            std::string pong;
            if (!conn.ok() || !conn.send(R"({"verb":"ping"})") ||
                !conn.recv(pong) || pong.find("pong") == std::string::npos)
                report.fail("server did not answer a ping");
        }
        setupTimes.push_back(since(t0));
    }
    if (!opts.trace)
        report.e2e("setup_s", median(setupTimes), "s", kSetupReps);
    tracer.setEnabled(false);

    // Configuration pool: warm configs first (kAnchor, then seeded
    // ones), then cold ones in a seeded order; every cold request takes
    // the next unused entry.
    Mix mix;
    mix.suite = &suite;
    for (int regs = 96; regs <= 480; regs += 2)
        for (int dq : {16, 32, 64})
            if (regs != kAnchor.regs || dq != kAnchor.dq)
                mix.pool.push_back({regs, dq});
    Rng rng(opts.seed * 0x9e3779b97f4a7c15ull + 3);
    for (std::size_t i = mix.pool.size(); i > 1; --i)
        std::swap(mix.pool[i - 1], mix.pool[rng.below(i)]);
    mix.pool.insert(mix.pool.begin(), kAnchor);

    // Warm-up (untimed): direct simulate() references for the warm
    // configs, then one served run of each to fill the point cache.
    ThreadPool pool(kThreads);
    mix.warmRef.resize(kWarmConfigs);
    std::vector<std::string> flat(kWarmConfigs * suite.size());
    pool.parallelFor(flat.size(), [&](std::size_t i) {
        const Workload &w = suite[i % suite.size()];
        flat[i] =
            resultDigest(simulate(configOf(mix.pool[i / suite.size()]), w));
    });
    std::string warmDigests;
    for (std::size_t i = 0; i < flat.size(); ++i) {
        mix.warmRef[i / suite.size()][suite[i % suite.size()].spec->name] =
            flat[i];
        warmDigests += flat[i];
    }
    std::printf("digest serve_mix seed=%llu warm_points=%zu warm=%s\n",
                static_cast<unsigned long long>(opts.seed), flat.size(),
                fnv1aHex(warmDigests).c_str());

    // The anchor's direct results against the references; the served
    // ones are checked against the direct ones below and in the loop.
    RefDigests refs(std::string(DRSIM_PERFBENCH_DIR) + "/ref_digests.txt");
    if (opts.record) {
        std::map<std::string, std::string> digests;
        for (const auto &[wl, digest] : mix.warmRef[0])
            digests[refKey(kAnchor, wl)] = digest;
        if (!refs.rewrite("serve_mix", digests))
            report.fail("cannot write reference digests");
    } else if (!refs.load()) {
        report.fail("cannot read the reference digests");
    } else {
        for (const auto &[wl, digest] : mix.warmRef[0]) {
            const std::string key = refKey(kAnchor, wl);
            const std::string want = refs.expected(key);
            report.op(want.empty()     ? key + ": no reference digest"
                      : digest != want ? key + ": digest differs from the "
                                               "reference"
                                       : "");
        }
    }
    {
        Conn conn(port);
        for (std::size_t w = 0; w < kWarmConfigs; ++w) {
            const std::string id = "warmup" + std::to_string(w);
            Exchange ex = exchange(
                conn, runLine(id, "warm" + std::to_string(w), mix.pool[w]),
                id, suite.size());
            for (const auto &[wl, digest] : ex.digests) {
                if (ex.problem.empty() && mix.warmRef[w].at(wl) != digest)
                    ex.problem = "served " + wl +
                                 " differs from direct simulate()";
            }
            report.op(ex.problem.empty() ? "" : "warm-up: " + ex.problem);
        }
    }

    // The closed loop.  A traced run spends half its time untraced
    // (the overhead baseline) and half traced.
    std::vector<Phase> phases;
    if (opts.trace) {
        phases.push_back(
            runPhase(*live.server, port, opts.seed, mix, opts.seconds / 2, 0));
        tracer.setEnabled(true);
        phases.push_back(runPhase(*live.server, port, opts.seed + 1, mix,
                                  opts.seconds / 2, 0));
        tracer.setEnabled(false);
    } else {
        phases.push_back(runPhase(*live.server, port, opts.seed, mix,
                                  opts.seconds, kMinSamples));
    }

    // Before the direct simulations below.
    const double peakRss = peakRssMb();

    // Served == direct for the first few cold configurations.
    std::map<std::size_t, const Exchange *> coldByCfg;
    for (const Phase &ph : phases)
        for (const Exchange &ex : ph.exchanges)
            if (ex.kind == Kind::Cold && ex.problem.empty())
                coldByCfg[ex.cfgIndex] = &ex;
    std::vector<const Exchange *> toCheck;
    for (const auto &[cfg, ex] : coldByCfg)
        if (toCheck.size() < kColdChecks)
            toCheck.push_back(ex);
    std::vector<std::string> coldProblems(toCheck.size());
    pool.parallelFor(toCheck.size(), [&](std::size_t i) {
        const Exchange &ex = *toCheck[i];
        const CoreConfig cfg = configOf(mix.pool[ex.cfgIndex]);
        for (const auto &[wl, digest] : ex.digests) {
            for (const Workload &w : suite) {
                if (w.spec->name == wl &&
                    resultDigest(simulate(cfg, w)) != digest)
                    coldProblems[i] = "served cold " + wl +
                                      " differs from direct simulate()";
            }
        }
    });
    for (const std::string &p : coldProblems)
        report.op(p);
    live.stop();

    // Metrics.  Latencies are send-to-done of well-formed requests.
    const Phase &main = phases.back();
    std::vector<double> all, warm, cold, ack, first, stream;
    std::uint64_t advanced = 0, completed = 0, records = 0, errorReplies = 0;
    double codec = 0.0;
    LayerCounters computed;
    for (const Phase &ph : phases) {
        for (const Exchange &ex : ph.exchanges) {
            report.op(ex.problem);
            if (&ph != &main)
                continue;
            errorReplies += ex.errorReply;
            if (!ex.problem.empty())
                continue;
            ++completed;
            if (ex.kind == Kind::Malformed)
                continue;
            all.push_back(ex.doneMs);
            (ex.kind == Kind::Warm ? warm : cold).push_back(ex.doneMs);
            ack.push_back(ex.ackMs);
            first.push_back(ex.firstMs - ex.ackMs);
            stream.push_back(ex.doneMs - ex.firstMs);
            advanced += ex.advanced;
            records += ex.records;
            codec += ex.codecSeconds;
            computed.merge(ex.computed);
        }
    }
    const double rps = double(completed) / main.wall;
    report.note("serve_warm_p50_ms", median(warm), "ms", warm.size());
    report.notePercentile("serve_warm_p90_ms", warm, 0.9);
    report.note("serve_cold_p50_ms", median(cold), "ms", cold.size());
    report.notePercentile("serve_cold_p90_ms", cold, 0.9);
    report.note("serve_rps", rps, "1/s", completed);
    if (!opts.trace) {
        report.e2e("sim_mips", simMips(advanced, main.wall), "MIPS",
                   cold.size());
        report.e2e("op_p50_ms", all.empty() ? 0.0 : nearestRank(all, 0.5),
                   "ms", all.size());
        if (auto p90 = reportablePercentile(all, 0.9))
            report.e2e("op_p90_ms", *p90, "ms", all.size());
        else
            report.fail("too few well-formed requests for a p90");
        report.e2e("ops_per_s", rps, "1/s", completed);
        report.e2e("peak_rss_mb", peakRss, "MB", 1);
        return 0;
    }

    reportSetupLayers(report, setupCounters, kSetupReps);
    reportSimLayers(report, computed, 0.0, 0.0);
    const auto d = [](std::uint64_t v) { return double(v); };
    const serve::SweepService::Stats &b = main.before, &a = main.after;
    const std::uint64_t points = a.points - b.points;
    const std::uint64_t hits =
        (a.memoryHits - b.memoryHits) + (a.diskHits - b.diskHits);
    report.layer("serve.ack_ms", median(ack), "ms", ack.size());
    report.layer("serve.first_point_ms", median(first), "ms", first.size());
    report.layer("serve.stream_ms", median(stream), "ms", stream.size());
    report.layer("serve.memory_hits", d(a.memoryHits - b.memoryHits),
                 "count", points);
    report.layer("serve.disk_hits", d(a.diskHits - b.diskHits), "count",
                 points);
    report.layer("serve.computed", d(a.computed - b.computed), "count",
                 points);
    report.layer("serve.coalesced", d(a.coalesced - b.coalesced), "count",
                 points);
    report.layer("serve.hit_frac", ratio(d(hits), d(points)), "ratio",
                 points);
    report.layer("serve.errors", d(errorReplies), "count", completed);
    report.layer("serve.codec_us", ratio(codec * 1e6, d(records)), "us",
                 records);
    report.layer("trace.overhead_frac",
                 ratio(double(phases[0].exchanges.size()) / phases[0].wall,
                       double(main.exchanges.size()) / main.wall) -
                     1.0,
                 "ratio", main.exchanges.size());
    return 0;
}

} // namespace perfbench
