#include "report/report.hh"

#include <ostream>

#include "obs/json.hh"

namespace rmb {
namespace report {

namespace {

void
sampleStat(obs::JsonWriter &json, const std::string &key,
           const sim::SampleStat &stat)
{
    json.beginObject(key);
    json.field("count", stat.count());
    json.field("mean", stat.mean());
    json.field("min", stat.min());
    json.field("max", stat.max());
    json.field("p50", stat.percentile(50));
    json.field("p95", stat.percentile(95));
    json.endObject();
}

} // namespace

std::string
statsToJson(const net::Network &network, sim::Tick now)
{
    const net::NetworkStats &s = network.stats();
    obs::JsonWriter json;
    json.beginObject();
    json.field("network", network.name());
    json.field("nodes", std::uint64_t{network.numNodes()});
    json.field("now", static_cast<std::uint64_t>(now));
    json.field("injected", s.injected);
    json.field("delivered", s.delivered);
    json.field("failed", s.failed);
    json.field("nacks", s.nacks);
    json.field("retries", s.retries);
    sampleStat(json, "queueDelay", s.queueDelay);
    sampleStat(json, "setupLatency", s.setupLatency);
    sampleStat(json, "totalLatency", s.totalLatency);
    sampleStat(json, "pathLength", s.pathLength);
    if (s.activeCircuits.peakKnown())
        json.field("peakCircuits",
                   static_cast<std::int64_t>(
                       s.activeCircuits.maximum()));

    if (const auto *rmb =
            dynamic_cast<const core::Engine *>(&network)) {
        const core::RmbStats &r = rmb->rmbStats();
        json.beginObject("rmb");
        json.field("buses",
                   std::uint64_t{rmb->config().numBuses});
        json.field("compactionMoves", r.compactionMoves);
        json.field("blockedHeaders", r.blockedHeaders);
        json.field("blockedAborts", r.blockedAborts);
        json.field("timeoutAborts", r.timeoutAborts);
        json.field("cycleFlips", r.cycleFlips);
        json.field("maxCycleSkew", r.maxCycleSkew);
        json.field("dacks", r.dacks);
        json.field("multicasts", r.multicasts);
        sampleStat(json, "topReleaseLatency",
                   r.topReleaseLatency);
        json.field("avgSegmentUtilization",
                   rmb->averageSegmentUtilization(now));
        json.field("faultySegments",
                   std::uint64_t{rmb->faultySegments()});
        json.endObject();
    }

    json.endObject();
    return json.str();
}

void
utilizationHeatmap(std::ostream &os, const core::Engine &engine,
                   sim::Tick now)
{
    static const char kScale[] = " .:-=+*#%@";
    const auto n = static_cast<core::GapId>(engine.numNodes());
    const auto k = static_cast<int>(engine.config().numBuses);

    os << "segment utilization heatmap (columns = gaps 0.."
       << n - 1 << ", X = faulted)\n";
    for (int l = k - 1; l >= 0; --l) {
        os << "  L" << l
           << (l == k - 1 ? " (top)|" : "      |");
        for (core::GapId g = 0; g < n; ++g) {
            if (engine.segmentFaulty(g, l)) {
                os << 'X';
                continue;
            }
            const double u = engine.segmentUtilization(g, l, now);
            const auto bucket = static_cast<std::size_t>(
                u * 9.999);
            os << kScale[bucket > 9 ? 9 : bucket];
        }
        os << "|\n";
    }
    os << "  scale: ' ' = idle ... '@' = ~100% busy\n";
}

} // namespace report
} // namespace rmb
