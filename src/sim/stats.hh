/**
 * @file
 * Statistics primitives used by all networks and benches.
 */

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/logging.hh"
#include "sim/types.hh"

namespace rmb {
namespace sim {

/**
 * Scalar sample distribution: count / sum / min / max / mean /
 * variance (Welford) plus exact percentiles.
 *
 * Samples are kept as exact value -> count tallies, so memory does
 * not grow with the sample count.  Tick latencies and hop counts are
 * small non-negative integers: those are counted in an array indexed
 * by value (one increment per sample, memory set by the largest such
 * value); any other value keeps an ordered (value, count) entry.
 */
class SampleStat
{
  public:
    /** Record one sample (not NaN). */
    void add(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const;
    double max() const;
    double mean() const;
    /** Sample variance (n-1 denominator); 0 for fewer than 2 samples. */
    double variance() const;
    double stddev() const;

    /**
     * Exact percentile, @p p in [0, 100]: linear interpolation
     * between the two nearest ranks of the sorted samples.  NaN if
     * no samples were added.
     */
    double percentile(double p) const;

    /** Call @p f(value, count) for each distinct sample value, in
     *  ascending order. */
    template <typename F>
    void
    forEachTally(F &&f) const
    {
        auto other = others_.begin();
        for (std::size_t i = 0; i < small_.size(); ++i) {
            if (small_[i] == 0)
                continue;
            for (; other != others_.end() &&
                   other->first < static_cast<double>(i);
                 ++other)
                f(other->first, other->second);
            f(static_cast<double>(i), small_[i]);
        }
        for (; other != others_.end(); ++other)
            f(other->first, other->second);
    }

    /** Reset to the empty state. */
    void reset();

  private:
    /** Integers below this are counted in small_. */
    static constexpr double kSmallLimit = 65536.0;

    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    /** small_[v]: samples equal to the integer v. */
    std::vector<std::uint64_t> small_;
    /** Every other distinct value with its count. */
    std::map<double, std::uint64_t> others_;
};

/**
 * Tracks the busy fraction of a binary resource over simulated time
 * (e.g. one physical bus segment).  The tracker does not store whether
 * the resource is busy: its owner already does (the segment grid reads
 * it from occupancy and fault state), calls setBusy()/setFree() on
 * exact free->busy and busy->free edges only, and passes the current
 * state to the readers.
 */
class BusyTracker
{
  public:
    /** The resource turned busy at time @p now. */
    void setBusy(Tick now) { since_ = now; }

    /** The resource turned free at time @p now. */
    void
    setFree(Tick now)
    {
        rmb_assert(now >= since_, "time ran backwards in BusyTracker");
        accumulated_ += now - since_;
    }

    /** Busy fraction of the window [0, now]; @p busy is the
     *  resource's current state. */
    double utilization(Tick now, bool busy) const;

    /** Total ticks spent busy up to @p now. */
    Tick busyTicks(Tick now, bool busy) const;

  private:
    Tick since_ = 0;
    Tick accumulated_ = 0;
};

/**
 * Integer-valued level that changes over time (e.g. number of live
 * virtual buses); tracks the time-weighted average and the maximum.
 *
 * A level summed over parts (a composite network's rings) is kept in
 * one of two ways: parts on the sum's own clock feed every change
 * into it (sumInto), so it is exact, peak included; parts that
 * advance on clocks of their own are folded in when read
 * (assignSum), which keeps the current level and the average exact
 * but loses the peak.
 */
class LevelTracker
{
  public:
    /** Record a level change to @p value at time @p now. */
    void set(Tick now, std::int64_t value);

    /** Adjust by @p delta at time @p now. */
    void adjust(Tick now, std::int64_t delta);

    std::int64_t current() const { return value_; }

    /** Tick of the last change. */
    Tick lastChange() const { return lastChange_; }

    /** The peak level; meaningful only while peakKnown(). */
    std::int64_t maximum() const { return max_; }

    /** False once assignSum() replaced the history: the peak of a
     *  sum is not the sum of its parts' peaks. */
    bool peakKnown() const { return peakKnown_; }

    /** Time-weighted mean level over [0, now] (over [0, last change]
     *  when that is later). */
    double average(Tick now) const;

    /** Area under the level over [0, @p at] (over [0, last change]
     *  when that is later). */
    double area(Tick at) const;

    /** Also apply every later change to @p sum, which must share
     *  this level's clock and outlive it. */
    void sumInto(LevelTracker *sum) { sum_ = sum; }

    /** Become a sum folded from parts: @p value since @p at, with
     *  @p area under it over [0, at]. */
    void assignSum(Tick at, std::int64_t value, double area);

  private:
    std::int64_t value_ = 0;
    std::int64_t max_ = 0;
    Tick lastChange_ = 0;
    double weighted_ = 0.0;
    bool peakKnown_ = true;
    LevelTracker *sum_ = nullptr;
};

} // namespace sim
} // namespace rmb
