/**
 * @file
 * Experiments F4/F5/T2 + L1: dynamics of the compaction protocol.
 *
 *  - make-before-break move rate and the two-cycle full-bus move of
 *    Figure 5 (cycles needed for a fresh top-bus circuit to settle
 *    at the bottom);
 *  - top-bus release latency (Figure 3's motivation: the top bus
 *    frees long before the message completes);
 *  - odd/even cycle behaviour across asynchronous INC clocks
 *    (Table 2 / Figures 9-10): cycle rate and Lemma-1 skew.
 *
 * Each table's grid points are isolated simulations fanned across
 * common::Runner workers (--jobs), with per-point RNG substreams split
 * from the bench seed.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "common/parallel.hh"
#include "rmb/network.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"

int
main(int argc, char **argv)
{
    using namespace rmb;

    bench::Harness h(argc, argv, "F4/F5/T2/L1",
                     "compaction protocol dynamics",
                     {.seed = true, .jobs = true});

    const sim::Random root(h.seed(7));
    const common::Runner runner(h.jobs());
    const std::vector<std::uint32_t> all_k = {2u, 4u, 8u};

    // --- settle time of a single long-lived circuit ------------
    {
        struct Settle
        {
            sim::Tick settledAt = 0;
            std::uint64_t moves = 0;
        };
        std::vector<Settle> results(all_k.size());
        const sim::Random table_root = root.split(1);
        runner.forEach(results.size(), [&](std::size_t i) {
            const std::uint32_t k = all_k[i];
            const std::uint32_t n = 16;
            sim::Simulator s;
            core::RmbConfig cfg;
            cfg.numNodes = n;
            cfg.numBuses = k;
            cfg.seed = table_root.split(i).next();
            cfg.verify = core::VerifyLevel::Cheap;
            core::RmbNetwork net(s, cfg);
            net.send(0, 8, 1'000'000);
            // Wait until every hop reports level 0.
            sim::Tick settled_at = 0;
            while (settled_at == 0 && s.now() < 100'000) {
                s.run(16);
                const auto ids = net.liveBusIds();
                if (ids.empty())
                    continue;
                const auto *bus = net.bus(ids[0]);
                if (bus->state != core::BusState::Streaming &&
                    bus->state != core::BusState::AwaitHack &&
                    bus->state != core::BusState::Advancing) {
                    continue;
                }
                if (bus->hops.size() < 8)
                    continue;
                bool all_bottom = true;
                for (const auto &hop : bus->hops)
                    all_bottom &= !hop.inMove() && hop.level == 0;
                if (all_bottom)
                    settled_at = s.now();
            }
            results[i].settledAt = settled_at;
            results[i].moves = net.rmbStats().compactionMoves;
        });

        TextTable settle("ticks for a fresh circuit (injected on the"
                         " top bus) to compact to the bottom level",
                         {"N", "k", "path hops", "settle ticks",
                          "moves", "ticks/level"});
        for (std::size_t i = 0; i < all_k.size(); ++i) {
            const std::uint32_t k = all_k[i];
            settle.addRow(
                {TextTable::num(std::uint64_t{16}),
                 TextTable::num(std::uint64_t{k}),
                 TextTable::num(std::uint64_t{8}),
                 TextTable::num(static_cast<std::uint64_t>(
                     results[i].settledAt)),
                 TextTable::num(results[i].moves),
                 TextTable::num(
                     static_cast<double>(results[i].settledAt) /
                         (k - 1),
                     1)});
        }
        h.table(settle);
    }

    // --- top-bus release latency under batch load ---------------
    {
        struct Release
        {
            double mean = 0.0;
            double p95 = 0.0;
            double latency = 0.0;
        };
        std::vector<Release> results(all_k.size());
        const sim::Random table_root = root.split(2);
        const int batches = h.fast() ? 2 : 5;
        runner.forEach(results.size(), [&](std::size_t i) {
            const std::uint32_t k = all_k[i];
            sim::Simulator s;
            core::RmbConfig cfg;
            cfg.numNodes = 32;
            cfg.numBuses = k;
            cfg.seed = table_root.split(i).next();
            cfg.verify = core::VerifyLevel::Off;
            core::RmbNetwork net(s, cfg);
            sim::Random rng = table_root.split(i).split(1);
            double lat = 0.0;
            for (int b = 0; b < batches; ++b) {
                const auto pairs = workload::toPairs(
                    workload::randomFullTraffic(32, rng));
                const auto r =
                    workload::runBatch(net, pairs, 128, 20'000'000);
                lat += r.meanLatency / batches;
            }
            const auto &tr = net.rmbStats().topReleaseLatency;
            results[i].mean = tr.mean();
            results[i].p95 = tr.percentile(95);
            results[i].latency = lat;
        });

        TextTable release("top-bus release latency vs message"
                          " lifetime (random permutations, N = 32,"
                          " payload 128)",
                          {"k", "mean release", "p95 release",
                           "mean msg latency", "release/latency"});
        for (std::size_t i = 0; i < all_k.size(); ++i) {
            release.addRow(
                {TextTable::num(std::uint64_t{all_k[i]}),
                 TextTable::num(results[i].mean, 1),
                 TextTable::num(results[i].p95, 1),
                 TextTable::num(results[i].latency, 1),
                 TextTable::num(results[i].mean /
                                    results[i].latency,
                                3)});
        }
        h.table(release);
    }

    // --- odd/even cycling across asynchronous clocks -------------
    {
        struct Cycles
        {
            std::uint64_t minCycles = 0;
            std::uint64_t maxCycles = 0;
            std::uint64_t skew = 0;
            std::uint64_t moves = 0;
        };
        std::vector<Cycles> results(2);
        const sim::Random table_root = root.split(3);
        runner.forEach(results.size(), [&](std::size_t i) {
            const bool jitter = i == 1;
            const std::uint32_t n = 16;
            sim::Simulator s;
            core::RmbConfig cfg;
            cfg.numNodes = n;
            cfg.numBuses = 4;
            cfg.cyclePeriodMin = jitter ? 6 : 8;
            cfg.cyclePeriodMax = jitter ? 12 : 8;
            // Top-bus headers leave the sinking entirely to the
            // compaction protocol, so the move counter reflects it.
            cfg.headerPolicy = core::HeaderPolicy::PreferStraight;
            cfg.seed = table_root.split(i).next();
            cfg.verify = core::VerifyLevel::Cheap;
            core::RmbNetwork net(s, cfg);
            // Staggered-lifetime local traffic: as short circuits
            // die, the longer ones above them sink - steady
            // compaction churn.
            for (net::NodeId src = 0; src < n; ++src)
                net.send(src, (src + 3) % n,
                         2'000 + 1'500 * (src % 8));
            s.runFor(100'000);
            Cycles &c = results[i];
            c.minCycles = UINT64_MAX;
            for (std::uint32_t inc = 0; inc < n; ++inc) {
                c.minCycles = std::min(c.minCycles,
                                       net.inc(inc).cycleCount());
                c.maxCycles = std::max(c.maxCycles,
                                       net.inc(inc).cycleCount());
            }
            c.skew = net.rmbStats().maxCycleSkew;
            c.moves = net.rmbStats().compactionMoves;
            while (!net.quiescent() && s.now() < 2'000'000)
                s.run(4096);
        });

        TextTable cyc("odd/even cycle statistics over 100k ticks of"
                      " loaded operation (Table 2 / Figures 9-10)",
                      {"N", "clock jitter", "min cycles",
                       "max cycles", "max skew", "moves"});
        for (std::size_t i = 0; i < results.size(); ++i) {
            cyc.addRow({TextTable::num(std::uint64_t{16}),
                        i == 1 ? "6..12" : "none (8)",
                        TextTable::num(results[i].minCycles),
                        TextTable::num(results[i].maxCycles),
                        TextTable::num(results[i].skew),
                        TextTable::num(results[i].moves)});
        }
        h.table(cyc);
    }

    std::cout << "\nShape checks: a circuit drops one level every"
                 " ~2 cycles (Figure 5's two-cycle move); top-bus"
                 " release is a small fraction of message lifetime"
                 " (Figure 3); neighbour cycle skew never exceeds 1"
                 " (Lemma 1) even with 2x clock-rate spread.\n";
    return 0;
}
