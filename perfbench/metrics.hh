/**
 * @file
 * The benchmark's own arithmetic, kept free of simulator types so it
 * can be unit-tested on its own (tests/test_metrics.cc): quantiles
 * and the percentile-reporting rule, per-point means over passes,
 * self time from nested spans, simulated-MIPS accounting, and failure
 * fractions.
 */

#ifndef DRSIM_PERFBENCH_METRICS_HH
#define DRSIM_PERFBENCH_METRICS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

/** Nearest-rank percentile of @p v (0 < p <= 1); v must be non-empty. */
inline double
nearestRank(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(std::ceil(p * double(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/** Samples that lie strictly beyond the nearest-rank @p p percentile. */
inline std::size_t
samplesBeyond(std::size_t n, double p)
{
    const std::size_t rank =
        std::min<std::size_t>(n, std::size_t(std::ceil(p * double(n))));
    return n - rank;
}

/** Minimum samples beyond a percentile before it may be reported. */
constexpr std::size_t kMinBeyond = 10;

/**
 * The percentile-reporting rule: the @p p percentile of @p v, or
 * nothing when fewer than kMinBeyond samples lie beyond it.  The
 * median needs no tail and is reported from a single sample on.
 */
inline std::optional<double>
reportablePercentile(const std::vector<double> &v, double p)
{
    if (v.empty())
        return std::nullopt;
    if (p > 0.5 && samplesBeyond(v.size(), p) < kMinBeyond)
        return std::nullopt;
    return nearestRank(v, p);
}

/** Median (mean of the middle pair for even sizes); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Per-operation mean time over repeated passes: element i is the mean
 * of passes[p][i] over every pass that has an element i.  A sweep
 * repeats the same points in every pass, and one point's time swings
 * by up to a third from pass to pass of a run, in fast and slow
 * modes; its mean moves smoothly with the host where the median of
 * the pooled samples can jump from one mode to the other.
 */
inline std::vector<double>
meanOverPasses(const std::vector<std::vector<double>> &passes)
{
    std::vector<double> sum;
    std::vector<std::size_t> count;
    for (const std::vector<double> &pass : passes) {
        if (pass.size() > sum.size()) {
            sum.resize(pass.size(), 0.0);
            count.resize(pass.size(), 0);
        }
        for (std::size_t i = 0; i < pass.size(); ++i) {
            sum[i] += pass[i];
            ++count[i];
        }
    }
    for (std::size_t i = 0; i < sum.size(); ++i)
        sum[i] /= double(count[i]);
    return sum;
}

/** Instructions a run advanced: detailed commits plus functionally
 *  fast-forwarded instructions (sampled runs skip the latter). */
inline std::uint64_t
advancedInsts(std::uint64_t committed, std::uint64_t fast_forwarded)
{
    return committed + fast_forwarded;
}

/** Simulated millions of instructions advanced per host second. */
inline double
simMips(std::uint64_t advanced, double host_seconds)
{
    return host_seconds > 0.0 ? double(advanced) / host_seconds / 1e6
                              : 0.0;
}

/** Failed operations over operations attempted (0 when none ran). */
inline double
failFrac(std::uint64_t failed, std::uint64_t attempted)
{
    return attempted ? double(failed) / double(attempted) : 0.0;
}

/** One closed interval of a span tree, as selfTimes() consumes it. */
struct Interval
{
    double start = 0.0;
    double end = 0.0;
    /** Index of the parent span in the same vector, or -1. */
    long parent = -1;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by the union of its children's intervals (children
 * may overlap one another when they ran on several threads; each
 * child is clipped to the parent's interval).
 */
inline std::vector<double>
selfTimes(const std::vector<Interval> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(
        spans.size());
    for (const Interval &s : spans) {
        if (s.parent >= 0 && std::size_t(s.parent) < spans.size())
            kids[std::size_t(s.parent)].push_back({s.start, s.end});
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].start;
        const double hi = spans[i].end;
        auto &ks = kids[i];
        std::sort(ks.begin(), ks.end());
        double covered = 0.0;
        double runStart = 0.0;
        double runEnd = -1.0;
        bool open = false;
        for (auto [a, b] : ks) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a)
                continue;
            if (open && a <= runEnd) {
                runEnd = std::max(runEnd, b);
                continue;
            }
            if (open)
                covered += runEnd - runStart;
            runStart = a;
            runEnd = b;
            open = true;
        }
        if (open)
            covered += runEnd - runStart;
        self[i] = std::max(0.0, (hi - lo) - covered);
    }
    return self;
}

} // namespace perfbench

#endif // DRSIM_PERFBENCH_METRICS_HH
