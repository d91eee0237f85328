/**
 * @file
 * Property-style parameterized sweeps of the RMB protocol across
 * ring sizes, bus counts, seeds and blocking policies - every run
 * executes under full invariant auditing, so each case re-verifies
 * Theorem 1's "transactions are maintained over all existing virtual
 * buses" structurally, plus Lemma 1 on the cycle counters.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/bitutils.hh"

#include "obs/sinks.hh"
#include "rmb/network.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"

namespace rmb {
namespace core {
namespace {

using Params = std::tuple<std::uint32_t /*N*/, std::uint32_t /*k*/,
                          std::uint64_t /*seed*/>;

class RmbSweep : public ::testing::TestWithParam<Params>
{
  protected:
    RmbConfig
    config() const
    {
        const auto [n, k, seed] = GetParam();
        RmbConfig cfg;
        cfg.numNodes = n;
        cfg.numBuses = k;
        cfg.seed = seed;
        cfg.verify = VerifyLevel::Full;
        return cfg;
    }
};

TEST_P(RmbSweep, RandomPermutationCompletesAndInvariantsHold)
{
    const auto [n, k, seed] = GetParam();
    sim::Simulator s;
    // Flight recorder: an auditInvariants panic in this sweep dumps
    // the last protocol events to stderr (declared before the
    // network so it outlives the panic-hook registration).
    obs::RingBufferSink recorder(256);
    RmbNetwork net(s, config());
    net.setTraceSink(&recorder);
    sim::Random rng(seed * 1000 + 17);
    const auto pairs =
        workload::toPairs(workload::randomFullTraffic(n, rng));
    const auto r = workload::runBatch(net, pairs, 24, 4'000'000);
    EXPECT_TRUE(r.completed) << "N=" << n << " k=" << k;
    EXPECT_EQ(r.delivered, pairs.size());
    EXPECT_LE(net.rmbStats().maxCycleSkew, 1u);
    net.auditInvariants();
    // After the trailing Fack teardowns drain, every segment is
    // free again (delivery precedes the final hop releases).
    s.runFor(2000);
    net.auditInvariants();
    EXPECT_EQ(net.segments().occupiedCount(), 0u);
}

TEST_P(RmbSweep, HPermutationWithinCapacityCompletes)
{
    // Theorem 1 / section 3: an RMB with k buses supports any
    // k-permutation.  Build one whose max ring load is exactly <= k
    // and require completion.
    const auto [n, k, seed] = GetParam();
    sim::Simulator s;
    RmbNetwork net(s, config());
    sim::Random rng(seed * 77 + 3);
    workload::PairList pairs;
    for (int attempt = 0; attempt < 200; ++attempt) {
        const auto h = std::min<net::NodeId>(k, n / 2);
        auto candidate =
            workload::randomPartialPermutation(n, h, rng);
        if (workload::maxRingLoad(n, candidate) <= k) {
            pairs = std::move(candidate);
            break;
        }
    }
    ASSERT_FALSE(pairs.empty());
    const auto r = workload::runBatch(net, pairs, 24, 4'000'000);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.nacks, 0u); // distinct destinations: no dst Nacks
}

TEST_P(RmbSweep, AdversarialPatternsComplete)
{
    const auto [n, k, seed] = GetParam();
    (void)seed;
    sim::Simulator s;
    RmbNetwork net(s, config());
    std::vector<workload::Permutation> perms{
        workload::rotation(n, 1), workload::rotation(n, n / 2)};
    if (isPowerOfTwo(n))
        perms.push_back(workload::bitReversal(n));
    for (const auto &perm : perms) {
        const auto pairs = workload::toPairs(perm);
        const auto r = workload::runBatch(net, pairs, 16, 4'000'000);
        EXPECT_TRUE(r.completed) << "N=" << n << " k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RmbSweep,
    ::testing::Values(Params{4, 1, 1}, Params{4, 2, 2},
                      Params{8, 1, 1}, Params{8, 2, 2},
                      Params{8, 4, 3}, Params{16, 2, 1},
                      Params{16, 4, 2}, Params{16, 8, 3},
                      Params{32, 4, 1}, Params{13, 3, 5}),
    [](const ::testing::TestParamInfo<Params> &info) {
        // Appended piece by piece: "N" + std::to_string(...) makes
        // GCC 12 warn (-Wrestrict, a false positive) in Release.
        std::string name = "N";
        name += std::to_string(std::get<0>(info.param));
        name += 'k';
        name += std::to_string(std::get<1>(info.param));
        name += 's';
        name += std::to_string(std::get<2>(info.param));
        return name;
    });

TEST(RmbProperty, MakeBeforeBreakDualCodesObservable)
{
    // During compaction the derived Table-1 codes must pass through
    // the dual-source states 011/110; sample the registers densely
    // while many long circuits compact.
    sim::Simulator s;
    RmbConfig cfg;
    cfg.numNodes = 16;
    cfg.numBuses = 4;
    cfg.seed = 5;
    cfg.verify = VerifyLevel::Full;
    RmbNetwork net(s, cfg);
    for (net::NodeId i = 0; i < 8; ++i)
        net.send(i, (i + 5) % 16, 3000);
    std::uint64_t dual_seen = 0;
    for (int step = 0; step < 4000; ++step) {
        s.runFor(1);
        for (net::NodeId node = 0; node < 16; ++node) {
            for (Level l = 0; l < 4; ++l) {
                const auto bits = net.outputStatus(node, l);
                if (bits == 0b011 || bits == 0b110)
                    ++dual_seen;
            }
        }
    }
    EXPECT_GT(dual_seen, 0u);
    while (!net.quiescent())
        s.run(256);
}

TEST(RmbProperty, MoreBusesNeverHurtMakespan)
{
    // Aggregate shape: across seeds, k = 8 beats k = 1 clearly.
    double makespan_k1 = 0.0;
    double makespan_k8 = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        for (std::uint32_t k : {1u, 8u}) {
            sim::Simulator s;
            RmbConfig cfg;
            cfg.numNodes = 16;
            cfg.numBuses = k;
            cfg.seed = seed;
            RmbNetwork net(s, cfg);
            sim::Random rng(seed);
            const auto pairs = workload::toPairs(
                workload::randomFullTraffic(16, rng));
            const auto r =
                workload::runBatch(net, pairs, 24, 4'000'000);
            ASSERT_TRUE(r.completed);
            (k == 1 ? makespan_k1 : makespan_k8) +=
                static_cast<double>(r.makespan);
        }
    }
    EXPECT_LT(makespan_k8, makespan_k1 * 0.7);
}

TEST(RmbProperty, CompactionUnblocksWaitingHeaders)
{
    // Theorem 1's full-utilization claim depends on compaction: a
    // blocked header can only take an output within one level of its
    // input, so when the free segments sit at the *bottom* of a gap
    // the header needs the live circuits (and its own head hop) to
    // sink before it can proceed.
    //
    // Deterministic scenario (N = 16, k = 3, top-bus headers, Wait):
    // three circuits stack up on every level of gap 8 -
    //   c2: 8 -> 12, *short*  (top of gap 8 at creation)
    //   c1: 7 -> 11, long
    //   c0: 6 -> 10, long
    // then a probe 4 -> 9 must cross the full gap 8.
    //
    // With compaction the blockers sink to the bottom levels, the
    // probe rides the (freed) top buses, blocks at gap 8's top, and
    // proceeds as soon as the short c2 ends.  Without compaction the
    // blockers pin the upper levels, the staircase forces the probe
    // to descend to level 0, and c2's freed *top* segment is
    // unreachable (inputs only reach outputs within one level): the
    // probe must wait out the long streams.
    sim::Tick done_with = 0;
    sim::Tick done_without = 0;
    for (const bool enable : {true, false}) {
        sim::Simulator s;
        RmbConfig cfg;
        cfg.numNodes = 16;
        cfg.numBuses = 3;
        cfg.headerPolicy = HeaderPolicy::PreferStraight;
        cfg.blocking = BlockingPolicy::Wait;
        cfg.enableCompaction = enable;
        cfg.verify = VerifyLevel::Full;
        RmbNetwork net(s, cfg);
        net.send(8, 12, 4'000);  // c2 (short)
        s.runFor(40);
        net.send(7, 11, 40'000); // c1
        s.runFor(40);
        net.send(6, 10, 40'000); // c0
        s.runFor(1200);          // let compaction settle (if on)
        const auto probe = net.send(4, 9, 8);
        while (net.message(probe).state !=
                   net::MessageState::Delivered &&
               s.now() < 300'000) {
            s.run(256);
        }
        ASSERT_EQ(net.message(probe).state,
                  net::MessageState::Delivered)
            << "compaction=" << enable;
        (enable ? done_with : done_without) =
            net.message(probe).delivered;
        while (!net.quiescent() && s.now() < 800'000)
            s.run(4096);
    }
    // c2 ends around tick ~4200; the long blockers around ~40k.
    EXPECT_LT(done_with, 10'000u);
    EXPECT_GT(done_without, 20'000u);
}

TEST(RmbProperty, HeaderPoliciesBothComplete)
{
    for (const HeaderPolicy policy :
         {HeaderPolicy::PreferLowest, HeaderPolicy::PreferStraight}) {
        sim::Simulator s;
        RmbConfig cfg;
        cfg.numNodes = 16;
        cfg.numBuses = 4;
        cfg.headerPolicy = policy;
        cfg.verify = VerifyLevel::Full;
        RmbNetwork net(s, cfg);
        sim::Random rng(9);
        const auto pairs = workload::toPairs(
            workload::randomFullTraffic(16, rng));
        const auto r = workload::runBatch(net, pairs, 24, 4'000'000);
        EXPECT_TRUE(r.completed);
    }
}

TEST(RmbProperty, WaitPolicyDeadlocksUnderOversubscription)
{
    // The reproduction's negative finding, pinned as a test: with
    // Wait blocking, no timeout, and ring load far above k, random
    // permutations can wedge permanently (a cycle of partial buses).
    // We assert that at least one of several seeds deadlocks, which
    // is what motivates the NackRetry default.
    int deadlocks = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        sim::Simulator s;
        RmbConfig cfg;
        cfg.numNodes = 16;
        cfg.numBuses = 2;
        cfg.seed = seed;
        cfg.blocking = BlockingPolicy::Wait;
        RmbNetwork net(s, cfg);
        sim::Random rng(seed * 31);
        const auto pairs = workload::toPairs(
            workload::randomFullTraffic(16, rng));
        const auto r = workload::runBatch(net, pairs, 24, 150'000);
        if (!r.completed)
            ++deadlocks;
        // Drain what can drain; abandon the rest (simulator-local).
    }
    EXPECT_GT(deadlocks, 0);
}

} // namespace
} // namespace core
} // namespace rmb
