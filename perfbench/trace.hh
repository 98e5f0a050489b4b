/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * the simulator's public functions; nothing inside the simulator is
 * instrumented.  Each span carries a name ("layer.function"), start
 * and end (host seconds since the tracer was enabled), its parent
 * span and a request id shared by every span of one request or sweep
 * point.  Spans stay in memory until writeJsonl() at the end of the
 * run.  When tracing is off, a Span costs one relaxed atomic load.
 */

#ifndef DRSIM_PERFBENCH_TRACE_HH
#define DRSIM_PERFBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t request = 0;
};

/** Per-name totals over every recorded span. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double seconds = 0.0;     ///< summed durations
    double selfSeconds = 0.0; ///< summed self time
};

class Tracer
{
  public:
    static Tracer &instance();

    /** Start or pause recording; the clock starts at the first start. */
    void setEnabled(bool on);
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    double now() const;
    std::uint64_t nextId() { return ids_.fetch_add(1) + 1; }
    void record(const SpanRecord &rec);

    /** Totals per span name, self time included. */
    std::map<std::string, SpanTotals> totals() const;
    /** Write every span plus its self time as one JSON line each. */
    bool writeJsonl(const std::string &path) const;
    std::size_t size() const;

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> ids_{0};
    bool started_ = false;
    std::chrono::steady_clock::time_point origin_{};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/**
 * RAII span.  The parent defaults to the innermost open span on this
 * thread; pass @p parent explicitly for work handed to another thread.
 * The request id is inherited from the parent when not given.
 */
class Span
{
  public:
    explicit Span(const char *name, std::uint64_t parent = ~0ull,
                  std::uint64_t request = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return rec_.id; }
    std::uint64_t request() const { return rec_.request; }

  private:
    SpanRecord rec_;
    bool active_ = false;
    std::uint64_t savedTop_ = 0;
    std::uint64_t savedRequest_ = 0;
};

} // namespace perfbench

#endif // DRSIM_PERFBENCH_TRACE_HH
