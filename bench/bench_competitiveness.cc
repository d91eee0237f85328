/**
 * @file
 * Experiment E7 (paper section 4, "Concluding Remarks"): the
 * competitiveness of the on-line RMB routing protocol - the ratio of
 * its makespan to an optimal off-line schedule's - for random
 * communication patterns.  The paper proposes this study as future
 * work; we carry it out against two offline references:
 *
 *  - a makespan *lower bound* (bandwidth bound vs longest message),
 *    so online/LB upper-bounds the true competitive ratio, and
 *  - the greedy first-fit offline schedule, a feasible (possibly
 *    suboptimal) schedule an offline scheduler could actually run.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "offline/schedule.hh"
#include "rmb/network.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"

int
main(int argc, char **argv)
{
    using namespace rmb;

    bench::Harness h(argc, argv, "E7", "on-line vs off-line schedule"
                        " (competitiveness, section 4)",
                     {.seed = true});

    const int trials = h.fast() ? 3 : 10;
    const std::uint32_t payload = 32;
    const sim::Random root(h.seed(7));

    offline::TimingModel timing;

    TextTable t("random full permutations: online makespan vs"
                " offline references (mean over " +
                    std::to_string(trials) + " trials)",
                {"N", "k", "online", "greedy offline", "lower bound",
                 "online/greedy", "online/LB"});

    for (std::uint32_t n : {16u, 32u, 64u}) {
        for (std::uint32_t k : {2u, 4u, 8u}) {
            double online_sum = 0.0;
            double greedy_sum = 0.0;
            double lb_sum = 0.0;
            for (int trial = 0; trial < trials; ++trial) {
                const sim::Random trial_root =
                    root.split(n).split(k).split(
                        static_cast<std::uint64_t>(trial));
                sim::Random rng = trial_root.split(0);
                const auto pairs = workload::toPairs(
                    workload::randomFullTraffic(n, rng));

                sim::Simulator s;
                core::RmbConfig cfg;
                cfg.numNodes = n;
                cfg.numBuses = k;
                cfg.seed = trial_root.split(1).next();
                cfg.verify = core::VerifyLevel::Off;
                core::RmbNetwork net(s, cfg);
                const auto r = workload::runBatch(net, pairs,
                                                  payload,
                                                  20'000'000);
                if (!r.completed)
                    continue;
                online_sum += static_cast<double>(r.makespan);
                greedy_sum += static_cast<double>(
                    offline::greedyMakespanTicks(n, pairs, k,
                                                 payload, timing));
                lb_sum += static_cast<double>(
                    offline::lowerBoundTicks(n, pairs, k, payload,
                                             timing));
            }
            t.addRow({TextTable::num(std::uint64_t{n}),
                      TextTable::num(std::uint64_t{k}),
                      TextTable::num(online_sum / trials, 0),
                      TextTable::num(greedy_sum / trials, 0),
                      TextTable::num(lb_sum / trials, 0),
                      TextTable::num(online_sum / greedy_sum, 2),
                      TextTable::num(online_sum / lb_sum, 2)});
        }
    }
    h.table(t);

    // Structured patterns where the offline optimum is easy to
    // reason about.
    TextTable p("structured patterns, N = 32, k = 4",
                {"pattern", "online", "greedy offline",
                 "lower bound", "online/LB"});
    const std::uint32_t n = 32;
    const std::uint32_t k = 4;
    struct Pattern
    {
        std::string name;
        workload::Permutation perm;
    };
    for (const auto &[name, perm] :
         {Pattern{"rotation-1", workload::rotation(n, 1)},
          Pattern{"rotation-8", workload::rotation(n, 8)},
          Pattern{"tornado", workload::rotation(n, n / 2)},
          Pattern{"bit-reversal", workload::bitReversal(n)}}) {
        const auto pairs = workload::toPairs(perm);
        sim::Simulator s;
        core::RmbConfig cfg;
        cfg.numNodes = n;
        cfg.numBuses = k;
        cfg.verify = core::VerifyLevel::Off;
        core::RmbNetwork net(s, cfg);
        const auto r =
            workload::runBatch(net, pairs, payload, 20'000'000);
        const auto greedy = offline::greedyMakespanTicks(
            n, pairs, k, payload, timing);
        const auto lb = offline::lowerBoundTicks(n, pairs, k,
                                                 payload, timing);
        p.addRow({name,
                  TextTable::num(
                      static_cast<std::uint64_t>(r.makespan)),
                  TextTable::num(static_cast<std::uint64_t>(greedy)),
                  TextTable::num(static_cast<std::uint64_t>(lb)),
                  TextTable::num(static_cast<double>(r.makespan) /
                                     static_cast<double>(lb),
                                 2)});
    }
    h.table(p);

    // Small instances: the branch-and-bound gives the *provably
    // optimal* round count, so the offline reference is exact.
    TextTable e("small instances with exact optimal rounds"
                " (branch-and-bound), payload 32",
                {"N", "k", "LB rounds", "optimal rounds",
                 "greedy rounds", "online makespan",
                 "opt-rounds makespan", "online/optimal"});
    sim::Random erng = root.split(99);
    for (std::uint32_t n : {8u, 10u, 12u}) {
        for (std::uint32_t k : {1u, 2u}) {
            const auto pairs = workload::toPairs(
                workload::randomFullTraffic(n, erng));
            const auto lb_rounds = offline::minRounds(n, pairs, k);
            const auto opt = offline::optimalRounds(n, pairs, k);
            const auto greedy =
                offline::greedySchedule(n, pairs, k).numRounds;

            sim::Simulator s;
            core::RmbConfig cfg;
            cfg.numNodes = n;
            cfg.numBuses = k;
            cfg.verify = core::VerifyLevel::Off;
            core::RmbNetwork net(s, cfg);
            const auto r = workload::runBatch(net, pairs, payload,
                                              20'000'000);
            // An idealized executor running `opt` rounds of the
            // slowest message each.
            sim::Tick longest = 0;
            for (const auto &[src, dst] : pairs) {
                const std::uint32_t h = (dst + n - src) % n;
                longest = std::max(longest,
                                   timing.messageTime(h, payload));
            }
            const sim::Tick opt_ms =
                static_cast<sim::Tick>(opt) * longest;
            e.addRow(
                {TextTable::num(std::uint64_t{n}),
                 TextTable::num(std::uint64_t{k}),
                 TextTable::num(std::uint64_t{lb_rounds}),
                 opt ? TextTable::num(std::uint64_t{opt})
                     : std::string("budget"),
                 TextTable::num(std::uint64_t{greedy}),
                 TextTable::num(
                     static_cast<std::uint64_t>(r.makespan)),
                 TextTable::num(
                     static_cast<std::uint64_t>(opt_ms)),
                 opt ? TextTable::num(
                           static_cast<double>(r.makespan) /
                               static_cast<double>(opt_ms),
                           2)
                     : std::string("-")});
        }
    }
    h.table(e);

    std::cout << "\nShape check: the online protocol stays within a"
                 " small constant factor of the offline lower bound"
                 " for random patterns (the paper conjectured good"
                 " competitiveness; this harness measures it).\n";
    return 0;
}
