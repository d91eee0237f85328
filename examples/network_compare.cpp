/**
 * @file
 * Run the same workload over the RMB and every baseline topology
 * through the shared net::Network interface, and print a side-by-
 * side comparison - a minimal version of the E6 bench that shows
 * how to drive heterogeneous networks from one harness.
 *
 *   $ ./examples/network_compare
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "baselines/fattree.hh"
#include "baselines/hypercube.hh"
#include "baselines/mesh.hh"
#include "baselines/multibus.hh"
#include "common/table.hh"
#include "rmb/network.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"

int
main()
{
    using namespace rmb;

    constexpr std::uint32_t kNodes = 16;
    constexpr std::uint32_t kBuses = 4;
    constexpr std::uint32_t kPayload = 48;

    // One workload, many networks: a random fixed-point-free
    // permutation.
    sim::Random rng(99);
    const auto pairs = workload::toPairs(
        workload::randomFullTraffic(kNodes, rng));

    TextTable table("random permutation, N = 16, payload 48 flits",
                    {"network", "makespan", "mean latency",
                     "mean hops", "nacks", "retries"});

    for (int which = 0; which < 6; ++which) {
        sim::Simulator simulator;
        std::unique_ptr<net::Network> network;
        baseline::CircuitConfig circuit;
        switch (which) {
          case 0: {
            core::RmbConfig cfg;
            cfg.numNodes = kNodes;
            cfg.numBuses = kBuses;
            network = std::make_unique<core::RmbNetwork>(simulator,
                                                         cfg);
            break;
          }
          case 1:
            network = std::make_unique<baseline::IdealRingNetwork>(
                simulator, kNodes, kBuses, circuit);
            break;
          case 2:
            network = std::make_unique<baseline::HypercubeNetwork>(
                simulator, 4, circuit);
            break;
          case 3:
            network = std::make_unique<baseline::FatTreeNetwork>(
                simulator, kNodes, kBuses, circuit);
            break;
          case 4:
            network = std::make_unique<baseline::MeshNetwork>(
                simulator, 4, 4, circuit);
            break;
          case 5:
            network = std::make_unique<baseline::MultiBusNetwork>(
                simulator, kNodes, kBuses, circuit);
            break;
        }

        const auto result =
            workload::runBatch(*network, pairs, kPayload);
        table.addRow(
            {network->name(),
             TextTable::num(
                 static_cast<std::uint64_t>(result.makespan)),
             TextTable::num(result.meanLatency, 1),
             TextTable::num(network->stats().pathLength.mean(), 2),
             TextTable::num(
                 static_cast<std::uint64_t>(result.nacks)),
             TextTable::num(
                 static_cast<std::uint64_t>(result.retries))});
    }

    table.print(std::cout);
    std::printf("\nSee bench/specs/permutation_compare.json (run it"
                " with tools/sweep) for the full experiment (more"
                " sizes, more patterns, averaged replicas) and"
                " bench_costs for the hardware-cost side of the"
                " trade.\n");
    return 0;
}
