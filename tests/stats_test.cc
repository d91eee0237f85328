/**
 * @file
 * Unit tests for statistics primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/random.hh"
#include "sim/stats.hh"

namespace rmb {
namespace sim {
namespace {

TEST(SampleStat, EmptyState)
{
    SampleStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.sum(), 0.0);
    EXPECT_TRUE(std::isnan(s.mean()));
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_TRUE(std::isnan(s.percentile(50)));
}

TEST(SampleStat, SingleSample)
{
    SampleStat s;
    s.add(4.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.mean(), 4.0);
    EXPECT_EQ(s.min(), 4.0);
    EXPECT_EQ(s.max(), 4.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.percentile(0), 4.0);
    EXPECT_EQ(s.percentile(100), 4.0);
}

TEST(SampleStat, MomentsMatchClosedForm)
{
    SampleStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    // Population variance is 4; sample variance = 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(SampleStat, PercentilesInterpolate)
{
    SampleStat s;
    for (int i = 1; i <= 5; ++i)
        s.add(static_cast<double>(i) * 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 30.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(25), 20.0);
    EXPECT_DOUBLE_EQ(s.percentile(12.5), 15.0);
}

TEST(SampleStat, PercentileUnsortedInput)
{
    SampleStat s;
    for (double v : {9.0, 1.0, 5.0, 3.0, 7.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
}

/** The percentile of the sample-keeping SampleStat: sort every
 *  sample, interpolate between the nearest ranks. */
double
sortedPercentile(std::vector<double> samples, double p)
{
    std::sort(samples.begin(), samples.end());
    const double rank =
        p / 100.0 * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

TEST(SampleStat, PercentilesMatchSortedSamples)
{
    Random rng(17);
    for (std::size_t size : {1u, 2u, 3u, 7u, 64u, 1000u, 25000u}) {
        // Ranges of integers (some negative, some past the small-value
        // array), plus the odd non-integer sample.
        for (const auto &[spread, offset] :
             {std::pair{1u, 0.0}, std::pair{5u, 0.0},
              std::pair{300u, -150.0}, std::pair{100000u, 0.0}}) {
            SampleStat s;
            std::vector<double> samples;
            for (std::size_t i = 0; i < size; ++i) {
                double v =
                    static_cast<double>(rng.uniformInt(spread)) + offset;
                if (rng.bernoulli(0.02))
                    v += rng.uniformReal();
                s.add(v);
                samples.push_back(v);
            }
            for (double p : {0.0, 12.5, 50.0, 95.0, 99.0, 100.0})
                EXPECT_EQ(s.percentile(p), sortedPercentile(samples, p))
                    << "size " << size << " spread " << spread
                    << " p" << p;
            EXPECT_EQ(s.min(), sortedPercentile(samples, 0));
            EXPECT_EQ(s.max(), sortedPercentile(samples, 100));
        }
    }
}

TEST(SampleStat, MemoryFollowsDistinctValues)
{
    SampleStat s;
    for (std::uint64_t i = 0; i < 1000000; ++i)
        s.add(static_cast<double>(i % 64));
    EXPECT_EQ(s.count(), 1000000u);
    std::vector<std::pair<double, std::uint64_t>> tallies;
    s.forEachTally([&](double value, std::uint64_t n) {
        tallies.emplace_back(value, n);
    });
    ASSERT_EQ(tallies.size(), 64u);
    EXPECT_EQ(tallies.front(), std::make_pair(0.0, std::uint64_t{15625}));
    EXPECT_EQ(tallies.back(), std::make_pair(63.0, std::uint64_t{15625}));
    EXPECT_EQ(s.percentile(50), 31.5);
}

TEST(SampleStat, ResetClears)
{
    SampleStat s;
    s.add(1.0);
    s.add(2.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_TRUE(std::isnan(s.mean()));
    s.add(5.0);
    EXPECT_EQ(s.mean(), 5.0);
}

TEST(SampleStatDeathTest, BadPercentilePanics)
{
    SampleStat s;
    s.add(1.0);
    EXPECT_DEATH(s.percentile(101.0), "percentile");
}

TEST(BusyTracker, StartsFree)
{
    BusyTracker t;
    EXPECT_EQ(t.busyTicks(100, false), 0u);
    EXPECT_EQ(t.utilization(100, false), 0.0);
}

TEST(BusyTracker, AccumulatesBusyWindows)
{
    BusyTracker t;
    t.setBusy(10);
    t.setFree(30);
    t.setBusy(50);
    t.setFree(60);
    EXPECT_EQ(t.busyTicks(100, false), 30u);
    EXPECT_DOUBLE_EQ(t.utilization(100, false), 0.3);
}

TEST(BusyTracker, OpenWindowCountsUpToNow)
{
    BusyTracker t;
    t.setBusy(40);
    EXPECT_EQ(t.busyTicks(100, true), 60u);
    EXPECT_DOUBLE_EQ(t.utilization(100, true), 0.6);
    // An edge at now itself adds nothing yet.
    EXPECT_EQ(t.busyTicks(40, true), 0u);
}

TEST(BusyTracker, ZeroWindowUtilizationIsZero)
{
    BusyTracker t;
    EXPECT_EQ(t.utilization(0, false), 0.0);
    EXPECT_EQ(t.utilization(0, true), 0.0);
}

TEST(LevelTracker, TracksCurrentAndMax)
{
    LevelTracker t;
    t.adjust(0, 2);
    t.adjust(10, 3);
    t.adjust(20, -4);
    EXPECT_EQ(t.current(), 1);
    EXPECT_EQ(t.maximum(), 5);
}

TEST(LevelTracker, TimeWeightedAverage)
{
    LevelTracker t;
    t.set(0, 0);
    t.set(10, 4); // level 0 over [0,10)
    t.set(30, 2); // level 4 over [10,30)
    // Over [0,40): (0*10 + 4*20 + 2*10)/40 = 2.5
    EXPECT_DOUBLE_EQ(t.average(40), 2.5);
}

TEST(LevelTracker, AverageAtZeroIsCurrent)
{
    LevelTracker t;
    t.set(0, 7);
    EXPECT_DOUBLE_EQ(t.average(0), 7.0);
}

TEST(LevelTracker, SumIntoFeedsEveryChange)
{
    LevelTracker a, b, sum;
    a.sumInto(&sum);
    b.sumInto(&sum);
    a.adjust(0, 2);  // sum 2 over [0,10)
    b.adjust(10, 3); // sum 5 over [10,20)
    a.adjust(20, -2);
    b.adjust(30, -1); // sum 3 over [20,30), 2 from 30
    EXPECT_EQ(sum.current(), 2);
    EXPECT_EQ(sum.maximum(), 5); // not a.maximum() + b.maximum()
    EXPECT_TRUE(sum.peakKnown());
    EXPECT_DOUBLE_EQ(sum.average(40),
                     a.average(40) + b.average(40));
}

TEST(LevelTracker, AssignSumKeepsAreaButNotPeak)
{
    LevelTracker a, b, sum;
    a.adjust(0, 2);
    b.adjust(10, 3);
    a.adjust(20, -2);
    sum.assignSum(30, a.current() + b.current(),
                  a.area(30) + b.area(30));
    EXPECT_EQ(sum.current(), 3);
    EXPECT_DOUBLE_EQ(sum.area(30), 2.0 * 20 + 3.0 * 20);
    EXPECT_DOUBLE_EQ(sum.average(40),
                     a.average(40) + b.average(40));
    // A read before the fold's tick averages up to the fold.
    EXPECT_DOUBLE_EQ(sum.average(25), sum.average(30));
    EXPECT_FALSE(sum.peakKnown());
}

TEST(LevelTrackerDeathTest, TimeBackwardsPanics)
{
    LevelTracker t;
    t.set(10, 1);
    EXPECT_DEATH(t.set(5, 2), "backwards");
}

} // namespace
} // namespace sim
} // namespace rmb
