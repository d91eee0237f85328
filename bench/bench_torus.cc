/**
 * @file
 * Experiment E15 (paper section 4: RMB for 2-D grid connected
 * computers): the torus of RMB rings vs a single large RMB ring and
 * vs the circuit-switched 2-D mesh baseline, at matched node
 * counts.
 */

#include <iostream>

#include "baselines/mesh.hh"
#include "bench/bench_util.hh"
#include "common/table.hh"
#include "rmb/network.hh"
#include "rmb/ring_graph.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"

int
main(int argc, char **argv)
{
    using namespace rmb;

    bench::Harness h(argc, argv, "E15", "2-D grid of RMB rings vs one large ring"
                         " vs mesh (section 4 future work)");

    const std::uint32_t payload = 32;
    const int trials = h.fast() ? 2 : 5;
    const sim::Random root(h.seed(15));

    TextTable t("random permutation makespan (ticks); torus rings"
                " and single ring both use k = 4",
                {"nodes", "layout", "RMB torus", "RMB single ring",
                 "Mesh (1 ch)", "torus mean hops",
                 "ring mean hops"});
    struct Shape
    {
        std::uint32_t w;
        std::uint32_t h;
    };
    for (const Shape shape : {Shape{4, 4}, Shape{8, 4},
                              Shape{8, 8}}) {
        const std::uint32_t n = shape.w * shape.h;
        double torus_ms = 0.0;
        double ring_ms = 0.0;
        double mesh_ms = 0.0;
        double torus_hops = 0.0;
        double ring_hops = 0.0;
        for (int trial = 0; trial < trials; ++trial) {
            // All three networks in a row share the trial substream:
            // same permutation, same network seed.
            const sim::Random trial_root =
                root.split(n).split(
                    static_cast<std::uint64_t>(trial));
            const std::uint64_t net_seed =
                trial_root.split(1).next();
            sim::Random rng = trial_root.split(0);
            const auto pairs = workload::toPairs(
                workload::randomFullTraffic(n, rng));
            {
                sim::Simulator s;
                core::RmbConfig cfg;
                cfg.numBuses = 4;
                cfg.seed = net_seed;
                cfg.verify = core::VerifyLevel::Off;
                const auto net =
                    core::makeTorus(s, shape.w, shape.h, cfg);
                const auto r = workload::runBatch(*net, pairs,
                                                  payload,
                                                  20'000'000);
                torus_ms += static_cast<double>(r.makespan);
                torus_hops += net->stats().pathLength.mean();
            }
            {
                sim::Simulator s;
                core::RmbConfig cfg;
                cfg.numNodes = n;
                cfg.numBuses = 4;
                cfg.seed = net_seed;
                cfg.verify = core::VerifyLevel::Off;
                core::RmbNetwork net(s, cfg);
                const auto r = workload::runBatch(net, pairs,
                                                  payload,
                                                  20'000'000);
                ring_ms += static_cast<double>(r.makespan);
                ring_hops += net.stats().pathLength.mean();
            }
            {
                sim::Simulator s;
                baseline::CircuitConfig cfg;
                cfg.seed = net_seed;
                baseline::MeshNetwork net(s, shape.w, shape.h,
                                          cfg);
                const auto r = workload::runBatch(net, pairs,
                                                  payload,
                                                  20'000'000);
                mesh_ms += static_cast<double>(r.makespan);
            }
        }
        t.addRow({TextTable::num(std::uint64_t{n}),
                  std::to_string(shape.w) + "x" +
                      std::to_string(shape.h),
                  TextTable::num(torus_ms / trials, 0),
                  TextTable::num(ring_ms / trials, 0),
                  TextTable::num(mesh_ms / trials, 0),
                  TextTable::num(torus_hops / trials, 2),
                  TextTable::num(ring_hops / trials, 2)});
    }
    h.table(t);

    // 1-D vs 2-D vs 3-D at 64 nodes (the paper names 3-D grids
    // explicitly).
    TextTable d("64 nodes, k = 4 rings: dimensionality sweep,"
                " random permutation",
                {"layout", "makespan", "mean hops", "rings",
                 "multi-leg msgs"});
    sim::Random rng = root.split(99);
    const auto pairs =
        workload::toPairs(workload::randomFullTraffic(64, rng));
    struct Layout
    {
        std::string name;
        std::vector<std::uint32_t> dims;
    };
    for (const Layout &layout :
         {Layout{"1-D ring (64)", {64}},
          Layout{"2-D torus (8x8)", {8, 8}},
          Layout{"3-D grid (4x4x4)", {4, 4, 4}}}) {
        sim::Simulator s;
        core::RmbConfig cfg;
        cfg.numBuses = 4;
        cfg.verify = core::VerifyLevel::Off;
        const auto net = core::makeGrid(s, layout.dims, cfg);
        const auto r =
            workload::runBatch(*net, pairs, payload, 20'000'000);
        // Pairs that differ in more than one coordinate need more
        // than one ring leg (node ids are mixed-radix, dim 0 first).
        std::uint64_t multi_leg = 0;
        for (const auto &[src, dst] : pairs) {
            std::uint32_t differing = 0;
            std::uint32_t a = src, b = dst;
            for (const std::uint32_t extent : layout.dims) {
                differing += a % extent != b % extent;
                a /= extent;
                b /= extent;
            }
            multi_leg += differing > 1;
        }
        d.addRow({layout.name,
                  r.completed
                      ? TextTable::num(static_cast<std::uint64_t>(
                            r.makespan))
                      : std::string("DNF"),
                  TextTable::num(net->stats().pathLength.mean(), 2),
                  TextTable::num(std::uint64_t{net->numRings()}),
                  TextTable::num(multi_leg)});
    }
    h.table(d);

    std::cout << "\nShape check: composing RMB rings into a grid"
                 " cuts mean path from ~N/2 to ~(W+H)/2 and the"
                 " makespan gap to the mesh shrinks accordingly -"
                 " the scalability route sections 1 and 4 sketch"
                 " (ring modules interconnected into larger"
                 " topologies).\n";
    return 0;
}
