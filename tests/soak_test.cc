/**
 * @file
 * Cross-feature soak matrix: every combination of header policy,
 * blocking policy, compaction, detailed flits and multi-port PEs
 * runs a mixed workload (batch + multicast + faults) under full
 * structural auditing.  Catches interactions no single-feature test
 * exercises.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "obs/sinks.hh"
#include "rmb/network.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"

namespace rmb {
namespace core {
namespace {

using Combo = std::tuple<HeaderPolicy, BlockingPolicy,
                         bool /*compaction*/, bool /*detailed*/,
                         std::uint32_t /*ports*/>;

class SoakMatrix : public ::testing::TestWithParam<Combo>
{
};

TEST_P(SoakMatrix, MixedWorkloadSurvivesFullAudit)
{
    const auto [header, blocking, compaction, detailed, ports] =
        GetParam();
    sim::Simulator s;
    RmbConfig cfg;
    cfg.numNodes = 16;
    cfg.numBuses = 4;
    cfg.seed = 99;
    cfg.headerPolicy = header;
    cfg.blocking = blocking;
    cfg.enableCompaction = compaction;
    cfg.detailedFlits = detailed;
    cfg.dackWindow = 6;
    cfg.sendPorts = ports;
    cfg.receivePorts = ports;
    // Wait policy needs the timeout safety valve under this load.
    if (blocking == BlockingPolicy::Wait)
        cfg.headerTimeout = 400;
    cfg.verify = VerifyLevel::Full;
    // Flight recorder: if any audit panics mid-soak, the last 256
    // protocol events land on stderr via the panic hook.  Declared
    // before the network so it outlives the hook registration.
    obs::RingBufferSink recorder(256);
    RmbNetwork net(s, cfg);
    net.setTraceSink(&recorder);

    // A scattered fault that both header policies can route around
    // (only one level of the gap dies).
    net.failSegment(5, 1);

    sim::Random rng(31);

    // Round 1: random batch.
    const auto pairs =
        workload::toPairs(workload::randomFullTraffic(16, rng));
    const auto r1 = workload::runBatch(net, pairs, 24, 4'000'000);
    EXPECT_TRUE(r1.completed);

    // Round 2: broadcast + crossing unicasts, injected live.
    const auto group = net.broadcast(3, 64);
    for (net::NodeId i = 0; i < 16; i += 3)
        net.send(i, (i + 7) % 16, 40);
    while (!net.quiescent() && s.now() < 8'000'000)
        s.run(512);
    ASSERT_TRUE(net.quiescent());
    EXPECT_TRUE(net.multicastRecord(group).complete);

    // Round 3: bursts through every node.
    workload::PairList burst;
    for (net::NodeId i = 0; i < 16; ++i) {
        burst.emplace_back(i, (i + 2) % 16);
        burst.emplace_back(i, (i + 5) % 16);
    }
    const auto r3 = workload::runBatch(net, burst, 16, 4'000'000);
    EXPECT_TRUE(r3.completed);

    // Structural sanity after everything.
    net.auditInvariants();
    EXPECT_LE(net.rmbStats().maxCycleSkew, 1u);
    EXPECT_EQ(net.segments().occupiedCount() -
                  /* trailing teardowns may still hold cells */ 0,
              net.segments().occupiedCount());
    s.runFor(2000); // drain trailing Facks
    EXPECT_EQ(net.segments().occupiedCount(), 0u);
}

// ----------------------------------------------------------------
// Fault-churn soak: a live MTBF/MTTR fault process (FaultSchedule)
// keeps failing and repairing segments under sustained load, with
// the watchdog armed.  Every message must end in a terminal state
// and the structural audit must hold once the churn drains.
// ----------------------------------------------------------------

TEST(FaultChurnSoak, SustainedLoadSurvivesFaultChurn)
{
    sim::Simulator s;
    RmbConfig cfg;
    cfg.numNodes = 16;
    cfg.numBuses = 4;
    cfg.seed = 77;
    cfg.transientFaults = true;
    cfg.faultMtbf = 400; // aggressive churn: ~1 fault / 400 ticks
    cfg.faultMttrMin = 200;
    cfg.faultMttrMax = 1'000;
    cfg.watchdogTimeout = 800;
    cfg.maxRetries = 60;
    cfg.verify = VerifyLevel::Full;
    // Flight recorder for the fault-churn path: a watchdog or audit
    // panic dumps the recent event tail instead of dying silently.
    obs::RingBufferSink recorder(256);
    RmbNetwork net(s, cfg);
    net.setTraceSink(&recorder);

    sim::Random rng(41);
    std::vector<net::MessageId> ids;
    for (int round = 0; round < 4; ++round) {
        // A full random permutation per round, plus crossing
        // long-haul sends so some buses live long enough to be hit.
        const auto pairs =
            workload::toPairs(workload::randomFullTraffic(16, rng));
        for (const auto &[src, dst] : pairs)
            ids.push_back(net.send(src, dst, 48));
        for (net::NodeId i = 0; i < 16; i += 4)
            ids.push_back(net.send(i, (i + 9) % 16, 400));
        while (!net.quiescent() &&
               s.now() < static_cast<sim::Tick>(round + 1) * 4'000'000)
            s.run(512);
    }
    ASSERT_TRUE(net.quiescent());

    // Terminal accounting: every message delivered or explicitly
    // failed, and the recovery/loss split covers every severed one.
    const auto &ns = net.stats();
    EXPECT_EQ(ns.delivered + ns.failed, ns.injected);
    EXPECT_EQ(std::uint64_t{ns.injected}, ids.size());
    for (const net::MessageId id : ids) {
        const auto st = net.message(id).state;
        EXPECT_TRUE(st == net::MessageState::Delivered ||
                    st == net::MessageState::Failed);
    }

    // The churn must have actually exercised the recovery machinery.
    const RmbStats &rs = net.rmbStats();
    EXPECT_GT(rs.faultsInjected, 0u);
    EXPECT_GT(rs.faultsRepaired, 0u);
    EXPECT_GT(rs.busesSevered, 0u);
    EXPECT_EQ(std::uint64_t{rs.messagesRecovered},
              rs.recoveryLatency.count());

    net.auditInvariants();
    s.runFor(4'000); // drain trailing Facks and pending repairs
    EXPECT_EQ(net.segments().occupiedCount(), 0u);
    net.auditInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SoakMatrix,
    ::testing::Combine(
        ::testing::Values(HeaderPolicy::PreferLowest,
                          HeaderPolicy::PreferStraight),
        ::testing::Values(BlockingPolicy::NackRetry,
                          BlockingPolicy::Wait),
        ::testing::Bool(),  // compaction
        ::testing::Bool(),  // detailed flits
        ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<Combo> &info) {
        // NB: no structured bindings here - their bare commas would
        // split the macro's arguments.
        std::string name;
        name += std::get<0>(info.param) ==
                        HeaderPolicy::PreferLowest
                    ? "Low"
                    : "Top";
        name += std::get<1>(info.param) ==
                        BlockingPolicy::NackRetry
                    ? "Nack"
                    : "Wait";
        name += std::get<2>(info.param) ? "Comp" : "NoComp";
        name += std::get<3>(info.param) ? "Flit" : "Fast";
        // Not "P" + std::to_string(...): GCC 12 warns (-Wrestrict,
        // a false positive) on that in Release.
        name += 'P';
        name += std::to_string(std::get<4>(info.param));
        return name;
    });

} // namespace
} // namespace core
} // namespace rmb
