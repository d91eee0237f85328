/**
 * @file
 * Route a bit-reversal permutation through the RMB and render the
 * physical bus occupancy as ASCII frames while the compaction
 * protocol runs - a live version of the paper's Figures 2 and 3.
 *
 *   $ ./examples/permutation_route [N] [k]
 *
 * Each frame draws the N x k segment grid: rows are bus levels (top
 * row = injection bus k-1), columns are the inter-node gaps; a
 * letter names the virtual bus occupying a segment ('*' marks a
 * make-before-break dual segment).
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "rmb/network.hh"
#include "sim/simulator.hh"
#include "workload/permutation.hh"

namespace {

using namespace rmb;

void
drawFrame(const core::RmbNetwork &network, sim::Tick now)
{
    const auto &segments = network.segments();
    const auto n = segments.numGaps();
    const auto k = segments.numLevels();

    // Stable letters per live bus id, looked up by the pool slot
    // that owns the bus's segments.
    std::map<core::BusKey, char> letter;
    std::map<core::BusKey, const core::VirtualBus *> bus_of;
    for (const auto id : network.liveBusIds()) {
        const core::VirtualBus *bus = network.bus(id);
        letter[bus->key] = static_cast<char>(
            'A' + static_cast<char>(letter.size() % 26));
        bus_of[bus->key] = bus;
    }

    std::printf("t=%-6llu  live buses: %zu\n",
                static_cast<unsigned long long>(now),
                letter.size());
    for (int l = static_cast<int>(k) - 1; l >= 0; --l) {
        std::printf("  L%d %s|", l, l == static_cast<int>(k) - 1
                                       ? "(top)" : "     ");
        for (core::GapId g = 0; g < n; ++g) {
            const auto key = segments.owner(g, l);
            if (key == core::kNoKey) {
                std::printf(" .");
                continue;
            }
            bool dual = false;
            for (const auto &h : bus_of.at(key)->hops)
                if (h.gap == g && h.dualLevel == l)
                    dual = true;
            std::printf(" %c", dual ? '*' : letter[key]);
        }
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rmb;

    const std::uint32_t n =
        argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1]))
                 : 16;
    const std::uint32_t k =
        argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2]))
                 : 4;

    sim::Simulator simulator;
    core::RmbConfig config;
    config.numNodes = n;
    config.numBuses = k;
    config.verify = core::VerifyLevel::Full;
    core::RmbNetwork network(simulator, config);

    const auto perm = workload::bitReversal(n);
    const auto pairs = workload::toPairs(perm);
    std::printf("bit-reversal permutation on RMB(N=%u, k=%u): %zu"
                " messages\n\n",
                n, k, pairs.size());
    for (const auto &[src, dst] : pairs)
        network.send(src, dst, 96);

    sim::Tick next_frame = 0;
    while (!network.quiescent() && simulator.now() < 1'000'000) {
        simulator.runUntil(next_frame);
        drawFrame(network, simulator.now());
        next_frame += 120;
    }
    while (!network.quiescent())
        simulator.run(1024);

    const auto &stats = network.stats();
    std::printf("\nall %llu messages delivered by tick %llu; mean"
                " latency %.1f, max %.0f; %llu compaction moves;"
                " max cycle skew %llu (Lemma 1 bound: 1)\n",
                static_cast<unsigned long long>(stats.delivered),
                static_cast<unsigned long long>(simulator.now()),
                stats.totalLatency.mean(), stats.totalLatency.max(),
                static_cast<unsigned long long>(
                    network.rmbStats().compactionMoves),
                static_cast<unsigned long long>(
                    network.rmbStats().maxCycleSkew));
    return 0;
}
