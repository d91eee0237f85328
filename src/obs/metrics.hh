/**
 * @file
 * Unified metrics registry.
 *
 * Every statistic a network maintains lives in one MetricsRegistry
 * under a stable dotted name ("rmb.compaction.moves"), in one of
 * three shapes:
 *
 * - Counter:   a monotonic (or max-tracking) integer,
 * - sampler:   a sim::SampleStat distribution,
 * - histogram: a sim::SampleStat of non-negative integers, rendered
 *              as power-of-two buckets (histogramJson()),
 * - level:     a sim::LevelTracker time-weighted level.
 *
 * The typed stats structs (net::NetworkStats, core::RmbStats) are
 * thin views holding references into the registry, so existing
 * field-style call sites keep compiling while snapshot() can
 * serialise every metric generically.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace rmb {
namespace obs {

/**
 * A named integer metric.  Converts implicitly to std::uint64_t so
 * it drops into arithmetic and comparisons like the plain counter
 * fields it replaced; assignment supports max-tracking gauges
 * (`if (x > c) c = x;`).
 */
class Counter
{
  public:
    Counter() = default;

    Counter &
    operator++()
    {
        ++value_;
        return *this;
    }

    Counter &
    operator+=(std::uint64_t delta)
    {
        value_ += delta;
        return *this;
    }

    Counter &
    operator=(std::uint64_t v)
    {
        value_ = v;
        return *this;
    }

    operator std::uint64_t() const { return value_; }

    std::uint64_t value() const { return value_; }

    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Render @p s, whose samples must be non-negative integers, as one
 * JSON object: {count, min, max, mean, p50, p90, p99, buckets}.
 * Bucket 0 holds exactly 0 and bucket i >= 1 holds [2^(i-1), 2^i);
 * the 64th bucket also takes everything above 2^63.  count, min and
 * max are integers and mean is sum / count.  Each percentile (nearest
 * rank) is interpolated linearly inside its bucket, then clamped to
 * [min, max].  "buckets" lists [low, count] for the non-empty
 * buckets.  An empty @p s renders the moments as null.
 */
std::string histogramJson(const sim::SampleStat &s);

/**
 * Owns every metric of one network instance.  Metrics are created on
 * first lookup and live as long as the registry; returned references
 * stay valid across later registrations.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Get or create the counter named @p name. */
    Counter &counter(const std::string &name);

    /** Get or create the sample distribution named @p name. */
    sim::SampleStat &sampler(const std::string &name);

    /** Get or create the level tracker named @p name. */
    sim::LevelTracker &level(const std::string &name);

    /** Get or create the histogram named @p name. */
    sim::SampleStat &histogram(const std::string &name);

    /** True if a metric of any shape is registered under @p name. */
    bool has(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    std::size_t
    size() const
    {
        return counters_.size() + samplers_.size() + levels_.size() +
               histograms_.size();
    }

    /**
     * Serialise every metric as one JSON object with sub-objects
     * "counters" (name -> integer), "samplers" (name -> moments and
     * percentiles), "levels" (name -> current/max/time-weighted
     * average over [0, @p now]) and "histograms" (name ->
     * count/min/max/mean/p50/p90/p99/buckets).  The "histograms"
     * key is omitted entirely when no histogram is registered, so
     * pre-existing report consumers see byte-identical snapshots.
     */
    std::string snapshot(sim::Tick now) const;

  private:
    /** Panics if @p name already exists with a different shape. */
    void checkShape(const std::string &name, const char *shape) const;

    std::map<std::string, Counter> counters_;
    std::map<std::string, sim::SampleStat> samplers_;
    std::map<std::string, sim::LevelTracker> levels_;
    std::map<std::string, sim::SampleStat> histograms_;
};

} // namespace obs
} // namespace rmb
