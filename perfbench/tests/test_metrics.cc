/**
 * @file
 * Tests of the benchmark's own arithmetic: the percentile-reporting
 * rule, per-point means over passes, self time from nested spans,
 * simulated-MIPS accounting and failure fractions.
 */

#include <gtest/gtest.h>

#include "../metrics.hh"
#include "../trace.hh"

using namespace perfbench;

namespace {

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(double(i));
    return v;
}

TEST(Percentile, NearestRank)
{
    EXPECT_EQ(nearestRank(iota(10), 0.5), 5.0);
    EXPECT_EQ(nearestRank(iota(100), 0.9), 90.0);
    EXPECT_EQ(nearestRank(iota(3), 1.0), 3.0);
    EXPECT_EQ(nearestRank({7.0}, 0.01), 7.0);
}

TEST(Percentile, WithheldUntilTenSamplesLieBeyond)
{
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
    EXPECT_EQ(samplesBeyond(99, 0.9), 9u);
    EXPECT_FALSE(reportablePercentile(iota(99), 0.9).has_value());
    ASSERT_TRUE(reportablePercentile(iota(100), 0.9).has_value());
    EXPECT_EQ(*reportablePercentile(iota(100), 0.9), 90.0);
    // p99 needs a thousand samples.
    EXPECT_FALSE(reportablePercentile(iota(999), 0.99).has_value());
    EXPECT_TRUE(reportablePercentile(iota(1000), 0.99).has_value());
    // The median is reported from one sample on; nothing from none.
    EXPECT_TRUE(reportablePercentile({4.0}, 0.5).has_value());
    EXPECT_FALSE(reportablePercentile({}, 0.5).has_value());
}

TEST(Percentile, Median)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Percentile, MeanOverPassesIsPerPoint)
{
    EXPECT_EQ(meanOverPasses({{1.0, 10.0}, {3.0, 20.0}}),
              (std::vector<double>{2.0, 15.0}));
    // A point missing from a later pass averages over the passes it
    // has.
    EXPECT_EQ(meanOverPasses({{4.0, 6.0}, {8.0}}),
              (std::vector<double>{6.0, 6.0}));
    EXPECT_TRUE(meanOverPasses({}).empty());
}

TEST(SelfTime, LeafSpanKeepsItsDuration)
{
    const auto self = selfTimes({{0.0, 2.0, -1}});
    EXPECT_DOUBLE_EQ(self[0], 2.0);
}

TEST(SelfTime, NestedChildrenAreSubtracted)
{
    // root [0,10) with children [1,3) and [5,6); grandchild [1,2).
    const auto self = selfTimes(
        {{0.0, 10.0, -1}, {1.0, 3.0, 0}, {5.0, 6.0, 0}, {1.0, 2.0, 1}});
    EXPECT_DOUBLE_EQ(self[0], 7.0);
    EXPECT_DOUBLE_EQ(self[1], 1.0);
    EXPECT_DOUBLE_EQ(self[2], 1.0);
    EXPECT_DOUBLE_EQ(self[3], 1.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce)
{
    // Children on two threads overlap inside [2,5); one pokes past
    // the parent's end and is clipped.
    const auto self = selfTimes(
        {{0.0, 10.0, -1}, {2.0, 5.0, 0}, {3.0, 4.0, 0}, {4.0, 12.0, 0}});
    EXPECT_DOUBLE_EQ(self[0], 2.0);
}

TEST(SimMips, CountsCommitsPlusFastForwarded)
{
    EXPECT_EQ(advancedInsts(1'000'000, 0), 1'000'000u);
    EXPECT_EQ(advancedInsts(250'000, 750'000), 1'000'000u);
    EXPECT_DOUBLE_EQ(simMips(advancedInsts(250'000, 750'000), 0.5), 2.0);
    EXPECT_DOUBLE_EQ(simMips(1'000'000, 0.0), 0.0);
}

TEST(FailFrac, CountsAgainstAttempted)
{
    EXPECT_DOUBLE_EQ(failFrac(0, 100), 0.0);
    EXPECT_DOUBLE_EQ(failFrac(3, 12), 0.25);
    EXPECT_DOUBLE_EQ(failFrac(0, 0), 0.0);
}

TEST(Tracer, SpansNestAndShareTheRequestId)
{
    Tracer &t = Tracer::instance();
    t.setEnabled(true);
    {
        Span outer("test.outer", 0, 42);
        Span inner("test.inner");
        EXPECT_EQ(inner.request(), 42u);
        EXPECT_NE(inner.id(), outer.id());
    }
    t.setEnabled(false);
    {
        Span off("test.off");
        EXPECT_EQ(off.id(), 0u);
    }
    const auto totals = t.totals();
    ASSERT_EQ(totals.count("test.outer"), 1u);
    ASSERT_EQ(totals.count("test.inner"), 1u);
    EXPECT_EQ(totals.count("test.off"), 0u);
    EXPECT_LE(totals.at("test.outer").selfSeconds,
              totals.at("test.outer").seconds);
}

} // namespace
