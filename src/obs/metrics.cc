#include "obs/metrics.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "obs/json.hh"

namespace rmb {
namespace obs {

namespace {

constexpr std::size_t kNumBuckets = 64;

std::size_t
bucketIndex(std::uint64_t value)
{
    return std::min<std::size_t>(std::bit_width(value), kNumBuckets - 1);
}

std::uint64_t
bucketLow(std::size_t index)
{
    return index == 0 ? 0 : std::uint64_t{1} << (index - 1);
}

/** @p v as an integer, saturating at the top of std::uint64_t. */
std::uint64_t
toInteger(double v)
{
    rmb_assert(v >= 0.0, "histogram sample ", v, " is negative");
    return v >= 0x1p64 ? ~std::uint64_t{0} : static_cast<std::uint64_t>(v);
}

} // namespace

std::string
histogramJson(const sim::SampleStat &s)
{
    const std::uint64_t count = s.count();
    if (count == 0) {
        return "{\"count\":0,\"min\":null,\"max\":null,\"mean\":null,"
               "\"p50\":null,\"p90\":null,\"p99\":null,\"buckets\":[]}";
    }
    std::uint64_t buckets[kNumBuckets] = {};
    std::uint64_t sum = 0;
    s.forEachTally([&](double value, std::uint64_t n) {
        const std::uint64_t v = toInteger(value);
        buckets[bucketIndex(v)] += n;
        sum += v * n;
    });
    const std::uint64_t min = toInteger(s.min());
    const std::uint64_t max = toInteger(s.max());
    std::ostringstream out;
    out << "{\"count\":" << count << ",\"min\":" << min
        << ",\"max\":" << max << ",\"mean\":"
        << static_cast<double>(sum) / static_cast<double>(count);
    for (const auto &[name, p] : {std::pair{"p50", 0.50},
                                  std::pair{"p90", 0.90},
                                  std::pair{"p99", 0.99}}) {
        // Nearest rank: the first bucket whose cumulative count
        // reaches ceil(p * count), interpolated inside it.
        const std::uint64_t target = std::max<std::uint64_t>(
            1, std::min(count, static_cast<std::uint64_t>(std::ceil(
                                   p * static_cast<double>(count)))));
        std::size_t i = 0;
        std::uint64_t below = 0;
        while (below + buckets[i] < target)
            below += buckets[i++];
        const double low = static_cast<double>(bucketLow(i));
        const double high = i == 0 ? 1.0 : low * 2.0;
        const double frac = static_cast<double>(target - below) /
                            static_cast<double>(buckets[i]);
        out << ",\"" << name << "\":"
            << std::clamp(low + frac * (high - low),
                          static_cast<double>(min),
                          static_cast<double>(max));
    }
    out << ",\"buckets\":[";
    const char *sep = "";
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
        if (buckets[i] == 0)
            continue;
        out << sep << '[' << bucketLow(i) << ',' << buckets[i] << ']';
        sep = ",";
    }
    out << "]}";
    return out.str();
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        checkShape(name, "counter");
        it = counters_.emplace(name, Counter{}).first;
    }
    return it->second;
}

sim::SampleStat &
MetricsRegistry::sampler(const std::string &name)
{
    auto it = samplers_.find(name);
    if (it == samplers_.end()) {
        checkShape(name, "sampler");
        it = samplers_.emplace(name, sim::SampleStat{}).first;
    }
    return it->second;
}

sim::LevelTracker &
MetricsRegistry::level(const std::string &name)
{
    auto it = levels_.find(name);
    if (it == levels_.end()) {
        checkShape(name, "level");
        it = levels_.emplace(name, sim::LevelTracker{}).first;
    }
    return it->second;
}

sim::SampleStat &
MetricsRegistry::histogram(const std::string &name)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        checkShape(name, "histogram");
        it = histograms_.emplace(name, sim::SampleStat{}).first;
    }
    return it->second;
}

bool
MetricsRegistry::has(const std::string &name) const
{
    return counters_.count(name) || samplers_.count(name) ||
           levels_.count(name) || histograms_.count(name);
}

std::vector<std::string>
MetricsRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(size());
    for (const auto &[name, metric] : counters_)
        out.push_back(name);
    for (const auto &[name, metric] : samplers_)
        out.push_back(name);
    for (const auto &[name, metric] : levels_)
        out.push_back(name);
    for (const auto &[name, metric] : histograms_)
        out.push_back(name);
    std::sort(out.begin(), out.end());
    return out;
}

void
MetricsRegistry::checkShape(const std::string &name,
                            const char *shape) const
{
    rmb_assert(!has(name), "metric '", name,
               "' already registered with a shape other than ",
               shape);
}

std::string
MetricsRegistry::snapshot(sim::Tick now) const
{
    JsonWriter json;
    json.beginObject();
    json.beginObject("counters");
    for (const auto &[name, c] : counters_)
        json.field(name, c.value());
    json.endObject();
    json.beginObject("samplers");
    for (const auto &[name, s] : samplers_) {
        json.beginObject(name);
        json.field("count", s.count());
        json.field("sum", s.sum());
        json.field("mean", s.mean());
        json.field("min", s.min());
        json.field("max", s.max());
        json.field("stddev", s.stddev());
        json.field("p50", s.percentile(50));
        json.field("p95", s.percentile(95));
        json.endObject();
    }
    json.endObject();
    json.beginObject("levels");
    for (const auto &[name, l] : levels_) {
        json.beginObject(name);
        json.field("current", static_cast<std::int64_t>(l.current()));
        if (l.peakKnown())
            json.field("max", static_cast<std::int64_t>(l.maximum()));
        json.field("avg", l.average(now));
        json.endObject();
    }
    json.endObject();
    if (!histograms_.empty()) {
        json.beginObject("histograms");
        for (const auto &[name, h] : histograms_)
            json.raw(name, histogramJson(h));
        json.endObject();
    }
    json.endObject();
    return json.str();
}

} // namespace obs
} // namespace rmb
