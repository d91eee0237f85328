#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace rmb {
namespace sim {

void
SampleStat::add(double v)
{
    rmb_assert(!std::isnan(v), "SampleStat::add(NaN)");
    ++count_;
    sum_ += v;
    if (count_ == 1) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    if (v >= 0.0 && v < kSmallLimit && v == std::floor(v)) {
        const std::size_t i = static_cast<std::size_t>(v);
        if (i >= small_.size())
            small_.resize(i + 1);
        ++small_[i];
    } else {
        ++others_[v];
    }
    // Welford's online mean/variance update.
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (v - mean_);
}

double
SampleStat::min() const
{
    return count_ ? min_ : std::numeric_limits<double>::quiet_NaN();
}

double
SampleStat::max() const
{
    return count_ ? max_ : std::numeric_limits<double>::quiet_NaN();
}

double
SampleStat::mean() const
{
    return count_ ? mean_ : std::numeric_limits<double>::quiet_NaN();
}

double
SampleStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
SampleStat::stddev() const
{
    return std::sqrt(variance());
}

double
SampleStat::percentile(double p) const
{
    rmb_assert(p >= 0.0 && p <= 100.0, "percentile(", p, ")");
    if (count_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    // Nearest-rank with linear interpolation between sorted positions
    // lo and hi = lo + 1 (clamped to the last).
    const double rank = p / 100.0 * static_cast<double>(count_ - 1);
    const std::uint64_t lo = static_cast<std::uint64_t>(rank);
    const std::uint64_t hi = std::min(lo + 1, count_ - 1);
    const double frac = rank - static_cast<double>(lo);
    double low = 0.0;
    double high = 0.0;
    std::uint64_t below = 0;
    forEachTally([&](double value, std::uint64_t n) {
        if (below <= lo && lo < below + n)
            low = value;
        if (below <= hi && hi < below + n)
            high = value;
        below += n;
    });
    return low * (1.0 - frac) + high * frac;
}

void
SampleStat::reset()
{
    *this = SampleStat();
}

Tick
BusyTracker::busyTicks(Tick now, bool busy) const
{
    Tick total = accumulated_;
    if (busy && now > since_)
        total += now - since_;
    return total;
}

double
BusyTracker::utilization(Tick now, bool busy) const
{
    if (now == 0)
        return 0.0;
    return static_cast<double>(busyTicks(now, busy)) /
           static_cast<double>(now);
}

void
LevelTracker::set(Tick now, std::int64_t value)
{
    rmb_assert(now >= lastChange_, "time ran backwards in LevelTracker");
    if (sum_ != nullptr)
        sum_->adjust(now, value - value_);
    weighted_ += static_cast<double>(value_) *
                 static_cast<double>(now - lastChange_);
    lastChange_ = now;
    value_ = value;
    max_ = std::max(max_, value_);
}

void
LevelTracker::adjust(Tick now, std::int64_t delta)
{
    set(now, value_ + delta);
}

double
LevelTracker::average(Tick now) const
{
    const Tick t = std::max(now, lastChange_);
    if (t == 0)
        return static_cast<double>(value_);
    return area(t) / static_cast<double>(t);
}

double
LevelTracker::area(Tick at) const
{
    return weighted_ + static_cast<double>(value_) *
                           static_cast<double>(
                               std::max(at, lastChange_) - lastChange_);
}

void
LevelTracker::assignSum(Tick at, std::int64_t value, double area)
{
    value_ = value;
    lastChange_ = at;
    weighted_ = area;
    peakKnown_ = false;
}

} // namespace sim
} // namespace rmb
