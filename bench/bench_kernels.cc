/**
 * @file
 * Experiment E17 (paper section 1's motivating computations +
 * section 4's k-ary n-cube comparison): algorithm-shaped
 * communication kernels - butterfly (sorting/FFT), all-to-all
 * (transpose), stencil (image processing), reduction and parallel
 * prefix - executed on the RMB, the dual-ring RMB, and the k-ary
 * n-cube / multibus baselines with identical circuit timing.
 */

#include <iostream>
#include <memory>

#include "baselines/kary_ncube.hh"
#include "baselines/multibus.hh"
#include "bench/bench_util.hh"
#include "common/table.hh"
#include "offline/schedule.hh"
#include "rmb/network.hh"
#include "rmb/ring_graph.hh"
#include "sim/simulator.hh"
#include "workload/kernels.hh"

namespace {

using namespace rmb;

std::unique_ptr<net::Network>
make(int which, sim::Simulator &s, std::uint32_t n,
     std::uint32_t k)
{
    baseline::CircuitConfig circuit;
    switch (which) {
      case 0: {
        core::RmbConfig cfg;
        cfg.numNodes = n;
        cfg.numBuses = k;
        cfg.verify = core::VerifyLevel::Off;
        return std::make_unique<core::RmbNetwork>(s, cfg);
      }
      case 1: {
        core::RmbConfig cfg;
        cfg.numNodes = n;
        cfg.numBuses = k;
        cfg.verify = core::VerifyLevel::Off;
        return core::makeDualRing(s, cfg);
      }
      case 2:
        // 4-ary 2-cube for N = 16, 4-ary 3-cube for N = 64.
        return std::make_unique<baseline::KaryNcubeNetwork>(
            s, 4, n == 16 ? 2 : 3, circuit);
      case 3:
        return std::make_unique<baseline::MultiBusNetwork>(
            s, n, k, circuit);
    }
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rmb;

    bench::Harness h(argc, argv, "E17", "algorithm kernels across networks"
                         " (sections 1 and 4)");

    const std::uint32_t payload = 32;

    for (const std::uint32_t n : {16u, 64u}) {
        const std::uint32_t k = 4;
        TextTable t("kernel makespan (ticks), N = " +
                        std::to_string(n) + ", k = 4, payload 32",
                    {"network", "butterfly", "all-to-all",
                     "stencil x4", "reduction", "prefix"});
        for (int which = 0; which < 4; ++which) {
            std::vector<std::string> row;
            std::string name;
            for (const auto &kernel : workload::allKernels(n)) {
                sim::Simulator s;
                auto net = make(which, s, n, k);
                name = net->name();
                const auto r =
                    workload::runKernel(*net, kernel, payload);
                row.push_back(
                    r.completed
                        ? TextTable::num(static_cast<std::uint64_t>(
                              r.makespan))
                        : std::string("DNF"));
            }
            row.insert(row.begin(), name);
            t.addRow(row);
        }
        h.table(t);
    }

    // Section 4's second competitiveness target: "communication
    // patterns emerging from practical applications".  Compare the
    // RMB's online kernel execution against the per-phase greedy
    // offline schedule (phases are barriers for both sides).
    {
        const std::uint32_t n = 16;
        const std::uint32_t k = 4;
        offline::TimingModel timing;
        TextTable c("application-trace competitiveness, N = 16,"
                    " k = 4 (online RMB vs per-phase offline"
                    " schedules)",
                    {"kernel", "online", "greedy offline",
                     "lower bound", "online/greedy"});
        for (const auto &kernel : workload::allKernels(n)) {
            sim::Simulator s;
            core::RmbConfig cfg;
            cfg.numNodes = n;
            cfg.numBuses = k;
            cfg.verify = core::VerifyLevel::Off;
            core::RmbNetwork net(s, cfg);
            const auto r =
                workload::runKernel(net, kernel, payload);
            sim::Tick greedy = 0;
            sim::Tick lb = 0;
            for (const auto &phase : kernel.phases) {
                greedy += offline::greedyMakespanTicks(
                    n, phase.pairs, k, payload, timing);
                lb += offline::lowerBoundTicks(n, phase.pairs, k,
                                               payload, timing);
            }
            c.addRow(
                {kernel.name,
                 r.completed
                     ? TextTable::num(static_cast<std::uint64_t>(
                           r.makespan))
                     : std::string("DNF"),
                 TextTable::num(static_cast<std::uint64_t>(greedy)),
                 TextTable::num(static_cast<std::uint64_t>(lb)),
                 r.completed
                     ? TextTable::num(
                           static_cast<double>(r.makespan) /
                               static_cast<double>(greedy),
                           2)
                     : std::string("-")});
        }
        h.table(c);
    }

    std::cout << "Shape checks: the one-way ring is crippled by"
                 " *backward* neighbour traffic (stencil's i -> i-1"
                 " wraps the whole ring), which is precisely why"
                 " section 2.1 suggests two counter-rotating rings:"
                 " the dual-ring RMB wins stencil outright (it even"
                 " beats the k-ary n-cube at N = 64) and closes"
                 " most of the gap elsewhere.  The k-ary n-cube"
                 " dominates the bisection-heavy kernels"
                 " (butterfly, all-to-all), mirroring section 3's"
                 " cost/performance trade: the RMB's 3-crosspoint"
                 " switches and unit wires buy hardware simplicity,"
                 " not bisection.\n";
    return 0;
}
