#include "report/report.hh"

#include <algorithm>
#include <ostream>

#include "obs/json.hh"

namespace rmb {
namespace report {

std::string
statsToJson(const net::Network &network, sim::Tick now)
{
    obs::JsonWriter json;
    json.beginObject();
    json.field("network", network.name());
    if (const auto *rmb =
            dynamic_cast<const core::Engine *>(&network)) {
        json.beginObject("rmb");
        json.field("buses",
                   std::uint64_t{rmb->config().numBuses});
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
    // The whole fault domain: a composed shape's gaps past N belong
    // to its column or global rings, which may have fewer levels.
    const core::GapId n = engine.faultDomainGaps();
    core::Level k = 0;
    for (core::GapId g = 0; g < n; ++g)
        k = std::max(k, engine.faultDomainLevels(g));

    os << "segment utilization heatmap (columns = gaps 0.."
       << n - 1 << ", X = faulted)\n";
    for (core::Level l = k - 1; l >= 0; --l) {
        os << "  L" << l
           << (l == k - 1 ? " (top)|" : "      |");
        for (core::GapId g = 0; g < n; ++g) {
            if (l >= engine.faultDomainLevels(g)) {
                os << ' ';
                continue;
            }
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
