/**
 * @file
 * Integration tests of the full RMB protocol: injection on the top
 * bus, header propagation, Hack/Nack, streaming, Fack teardown, and
 * the compaction protocol - all with full invariant auditing on.
 */

#include <gtest/gtest.h>

#include "rmb/network.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"

namespace rmb {
namespace core {
namespace {

RmbConfig
testConfig(std::uint32_t n, std::uint32_t k, std::uint64_t seed = 1)
{
    RmbConfig cfg;
    cfg.numNodes = n;
    cfg.numBuses = k;
    cfg.seed = seed;
    cfg.verify = VerifyLevel::Full;
    return cfg;
}

void
runToQuiescence(sim::Simulator &s, RmbNetwork &net,
                sim::Tick limit = 1'000'000)
{
    while (!net.quiescent() && s.now() < limit)
        s.run(256);
}

TEST(RmbNetwork, SingleMessageDelivered)
{
    sim::Simulator s;
    RmbNetwork net(s, testConfig(8, 3));
    const auto id = net.send(1, 5, 16);
    runToQuiescence(s, net);
    ASSERT_TRUE(net.quiescent());
    const net::Message &m = net.message(id);
    EXPECT_EQ(m.state, net::MessageState::Delivered);
    EXPECT_EQ(m.nacks, 0u);
    EXPECT_EQ(m.retries, 0u);
}

TEST(RmbNetwork, UnloadedLatencyMatchesTimingModel)
{
    // On an idle network the message timing is deterministic:
    // setup = hops*(header + ack); stream = (payload+1+hops)*flit.
    sim::Simulator s;
    RmbConfig cfg = testConfig(8, 3);
    RmbNetwork net(s, cfg);
    const std::uint32_t hops = 4;   // 1 -> 5
    const std::uint32_t payload = 16;
    const auto id = net.send(1, 5, payload);
    runToQuiescence(s, net);
    const net::Message &m = net.message(id);
    EXPECT_EQ(m.setupLatency(),
              hops * cfg.headerHopDelay + hops * cfg.ackHopDelay);
    EXPECT_EQ(m.delivered - m.established,
              (payload + 1 + hops) * cfg.flitDelay);
}

TEST(RmbNetwork, InjectionUsesTopBusOnly)
{
    sim::Simulator s;
    RmbConfig cfg = testConfig(8, 4);
    // Slow the compaction clocks so we can observe the top-bus state
    // right after injection.
    cfg.cyclePeriodMin = cfg.cyclePeriodMax = 1000;
    RmbNetwork net(s, cfg);
    net.send(2, 6, 64);
    s.run(2); // process the zero-delay injection event only
    // The source hop of bus 1 must sit on level k-1 of gap 2 (the
    // grid records the bus's pool slot).
    const VirtualBus *bus = net.bus(1);
    ASSERT_NE(bus, nullptr);
    EXPECT_EQ(net.segments().owner(2, 3), bus->key);
    EXPECT_TRUE(net.segments().isFree(2, 0));
    EXPECT_TRUE(net.segments().isFree(2, 1));
    EXPECT_TRUE(net.segments().isFree(2, 2));
}

TEST(RmbNetwork, CompactionMovesLongLivedBusToBottom)
{
    sim::Simulator s;
    RmbConfig cfg = testConfig(8, 4);
    RmbNetwork net(s, cfg);
    // A very long message so the circuit lives through many cycles.
    net.send(0, 4, 4000);
    s.runFor(2000);
    const auto ids = net.liveBusIds();
    ASSERT_EQ(ids.size(), 1u);
    const VirtualBus *bus = net.bus(ids[0]);
    ASSERT_NE(bus, nullptr);
    EXPECT_EQ(bus->state, BusState::Streaming);
    // After plenty of cycles every hop has been compacted to the
    // bottom level.
    for (const Hop &h : bus->hops) {
        EXPECT_FALSE(h.inMove());
        EXPECT_EQ(h.level, 0) << "gap " << h.gap;
    }
    EXPECT_GT(net.rmbStats().compactionMoves, 0u);
    runToQuiescence(s, net);
    EXPECT_TRUE(net.quiescent());
}

TEST(RmbNetwork, TopBusReleasedBeforeTeardown)
{
    // The whole point of compaction (paper section 2.3): the top bus
    // frees long before the message completes.
    sim::Simulator s;
    RmbNetwork net(s, testConfig(8, 4));
    const auto id = net.send(0, 4, 4000);
    runToQuiescence(s, net);
    const net::Message &m = net.message(id);
    const auto &stats = net.rmbStats();
    ASSERT_EQ(stats.topReleaseLatency.count(), 1u);
    EXPECT_LT(stats.topReleaseLatency.max(),
              static_cast<double>(m.totalLatency()) / 2.0);
}

TEST(RmbNetwork, WithoutCompactionNoMovesHappen)
{
    sim::Simulator s;
    RmbConfig cfg = testConfig(8, 4);
    cfg.enableCompaction = false;
    RmbNetwork net(s, cfg);
    net.send(0, 4, 100);
    net.send(2, 7, 100);
    runToQuiescence(s, net);
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(net.rmbStats().compactionMoves, 0u);
}

TEST(RmbNetwork, DestinationBusyNacksAndRetries)
{
    sim::Simulator s;
    RmbNetwork net(s, testConfig(8, 4));
    // First message occupies node 5's receive port for a long time.
    const auto a = net.send(1, 5, 2000);
    s.runFor(100); // a is established and streaming
    const auto b = net.send(0, 5, 8);
    runToQuiescence(s, net);
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(net.message(a).state, net::MessageState::Delivered);
    EXPECT_EQ(net.message(b).state, net::MessageState::Delivered);
    EXPECT_GE(net.message(b).nacks, 1u);
    EXPECT_GE(net.message(b).retries, 1u);
    EXPECT_GE(net.stats().nacks, 1u);
}

TEST(RmbNetwork, BoundedRetriesFail)
{
    sim::Simulator s;
    RmbConfig cfg = testConfig(8, 4);
    cfg.maxRetries = 2;
    cfg.retryBackoffMin = 4;
    cfg.retryBackoffMax = 8;
    RmbNetwork net(s, cfg);
    const auto a = net.send(1, 5, 50000); // hogs the receiver
    s.runFor(100);
    const auto b = net.send(0, 5, 8);
    runToQuiescence(s, net, 200'000);
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(net.message(a).state, net::MessageState::Delivered);
    EXPECT_EQ(net.message(b).state, net::MessageState::Failed);
    EXPECT_EQ(net.message(b).retries, 2u);
    EXPECT_EQ(net.stats().failed, 1u);
}

TEST(RmbNetwork, PerSourceFifoOrder)
{
    sim::Simulator s;
    RmbNetwork net(s, testConfig(8, 3));
    const auto a = net.send(0, 3, 32);
    const auto b = net.send(0, 5, 32);
    const auto c = net.send(0, 2, 32);
    runToQuiescence(s, net);
    ASSERT_TRUE(net.quiescent());
    EXPECT_LT(net.message(a).delivered, net.message(b).delivered);
    EXPECT_LT(net.message(b).delivered, net.message(c).delivered);
}

TEST(RmbNetwork, DisjointPathsShareNothing)
{
    // Four neighbour messages on disjoint gaps complete without any
    // Nack or retry even with k = 1.
    sim::Simulator s;
    RmbNetwork net(s, testConfig(8, 1));
    net.send(0, 1, 32);
    net.send(2, 3, 32);
    net.send(4, 5, 32);
    net.send(6, 7, 32);
    runToQuiescence(s, net);
    ASSERT_TRUE(net.quiescent());
    EXPECT_EQ(net.stats().nacks, 0u);
    EXPECT_EQ(net.stats().retries, 0u);
    // And they overlapped in time: 4 concurrent circuits > k = 1,
    // the paper's closing "not equivalent to a k bus system" claim.
    EXPECT_EQ(net.stats().activeCircuits.maximum(), 4);
}

TEST(RmbNetwork, MoreVirtualBusesThanPhysicalBuses)
{
    // Long-lived local traffic: N/2 simultaneous virtual buses on a
    // k = 2 RMB.
    sim::Simulator s;
    RmbNetwork net(s, testConfig(12, 2));
    for (net::NodeId i = 0; i < 12; i += 2)
        net.send(i, i + 1, 800);
    s.runFor(400);
    EXPECT_EQ(net.rmbStats().liveBuses.maximum(), 6);
    runToQuiescence(s, net);
    EXPECT_TRUE(net.quiescent());
}

TEST(RmbNetwork, KOverlappingCircuitsCoexist)
{
    // Theorem 1's utilization claim: k messages crossing a common
    // gap can all hold circuits concurrently because compaction
    // stacks them on the k levels.
    sim::Simulator s;
    RmbConfig cfg = testConfig(12, 3);
    RmbNetwork net(s, cfg);
    // All three paths cross gaps 3..5; stagger them so compaction
    // has time to free the top bus between injections.
    net.send(1, 6, 6000);
    s.runFor(400);
    net.send(2, 7, 6000);
    s.runFor(400);
    net.send(3, 8, 6000);
    s.runFor(400);
    EXPECT_EQ(net.stats().activeCircuits.maximum(), 3);
    // Gap 3 carries all three on distinct levels.
    std::uint32_t used = 0;
    for (Level l = 0; l < 3; ++l)
        if (!net.segments().isFree(3, l))
            ++used;
    EXPECT_EQ(used, 3u);
    runToQuiescence(s, net);
    EXPECT_TRUE(net.quiescent());
}

TEST(RmbNetwork, OutputStatusReflectsSettledBus)
{
    sim::Simulator s;
    RmbNetwork net(s, testConfig(8, 3));
    net.send(0, 3, 5000);
    s.runFor(1500); // established, streaming, fully compacted
    // Source port (gap 0) is PE-driven.
    bool pe_driven = false;
    (void)net.outputStatus(0, 0, &pe_driven);
    EXPECT_TRUE(pe_driven);
    // Intermediate INCs 1 and 2 route straight through at level 0.
    EXPECT_EQ(net.outputStatus(1, 0), 0b010);
    EXPECT_EQ(net.outputStatus(2, 0), 0b010);
    // Unoccupied ports read Unused.
    EXPECT_EQ(net.outputStatus(1, 2), 0b000);
    runToQuiescence(s, net);
}

TEST(RmbNetwork, Lemma1SkewBoundedOnIdleNetwork)
{
    sim::Simulator s;
    RmbNetwork net(s, testConfig(16, 4));
    s.runFor(50'000);
    EXPECT_LE(net.rmbStats().maxCycleSkew, 1u);
    // Cycles actually progressed on every INC.
    for (std::uint32_t i = 0; i < 16; ++i)
        EXPECT_GT(net.inc(i).cycleCount(), 100u) << "INC " << i;
}

TEST(RmbNetwork, WaitPolicyCompletesUnderLightLoad)
{
    sim::Simulator s;
    RmbConfig cfg = testConfig(8, 4);
    cfg.blocking = BlockingPolicy::Wait;
    RmbNetwork net(s, cfg);
    net.send(0, 4, 64);
    net.send(1, 5, 64);
    net.send(2, 6, 64);
    runToQuiescence(s, net);
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(net.stats().nacks, 0u);
}

TEST(RmbNetwork, WaitPolicyWithTimeoutRecoversFromOverload)
{
    sim::Simulator s;
    RmbConfig cfg = testConfig(16, 2, 7);
    cfg.blocking = BlockingPolicy::Wait;
    cfg.headerTimeout = 300;
    RmbNetwork net(s, cfg);
    sim::Random rng(7);
    const auto pairs =
        workload::toPairs(workload::randomFullTraffic(16, rng));
    const auto r = workload::runBatch(net, pairs, 32, 2'000'000);
    EXPECT_TRUE(r.completed);
}

TEST(RmbNetwork, HeaderTimeoutCountsFromTheLatestBlock)
{
    // One bus level; faults on gaps 1 and 2 block the header there.
    // It blocks at node 1, is woken by a repair, advances, and blocks
    // again at node 2 before its first timeout fires: that timeout
    // must not abort it, the one of its second block must.
    sim::Simulator s;
    RmbConfig cfg = testConfig(8, 1);
    cfg.blocking = BlockingPolicy::Wait;
    cfg.headerTimeout = 100;
    RmbNetwork net(s, cfg);
    net.failSegment(1, 0);
    net.failSegment(2, 0);
    const auto id = net.send(0, 4, 8);
    const sim::Tick hop = cfg.headerHopDelay;

    s.runUntil(hop); // blocked at node 1; its timeout is due at hop+100
    EXPECT_EQ(net.rmbStats().blockedHeaders, 1u);
    s.runUntil(50);
    net.repairSegment(1, 0); // advances; blocks at node 2 at 50+hop
    s.runUntil(hop + 100);
    EXPECT_EQ(net.rmbStats().blockedHeaders, 2u);
    EXPECT_EQ(net.rmbStats().timeoutAborts, 0u);
    s.runUntil(hop + 149);
    EXPECT_EQ(net.rmbStats().timeoutAborts, 0u);
    s.runUntil(hop + 150);
    EXPECT_EQ(net.rmbStats().timeoutAborts, 1u);

    net.repairSegment(2, 0);
    runToQuiescence(s, net);
    EXPECT_EQ(net.message(id).state, net::MessageState::Delivered);
    EXPECT_EQ(net.rmbStats().timeoutAborts, 1u);
}

TEST(RmbNetwork, RandomPermutationsComplete)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        sim::Simulator s;
        RmbNetwork net(s, testConfig(16, 4, seed));
        sim::Random rng(seed * 13);
        const auto pairs = workload::toPairs(
            workload::randomFullTraffic(16, rng));
        const auto r = workload::runBatch(net, pairs, 32, 2'000'000);
        EXPECT_TRUE(r.completed) << "seed " << seed;
        EXPECT_EQ(r.delivered, pairs.size());
        EXPECT_LE(net.rmbStats().maxCycleSkew, 1u);
    }
}

TEST(RmbNetwork, DeliveryCallbackFires)
{
    sim::Simulator s;
    RmbNetwork net(s, testConfig(8, 3));
    int calls = 0;
    net.setDeliveryCallback([&](const net::Message &m) {
        ++calls;
        EXPECT_EQ(m.state, net::MessageState::Delivered);
    });
    net.send(0, 4, 8);
    net.send(3, 1, 8);
    runToQuiescence(s, net);
    EXPECT_EQ(calls, 2);
}

TEST(RmbNetwork, TimestampOrderingInvariants)
{
    sim::Simulator s;
    RmbNetwork net(s, testConfig(8, 3));
    const auto a = net.send(4, 2, 16);
    runToQuiescence(s, net);
    const net::Message &m = net.message(a);
    EXPECT_LE(m.created, m.firstAttempt);
    EXPECT_LE(m.firstAttempt, m.established);
    EXPECT_LT(m.established, m.delivered);
}

TEST(RmbNetwork, AuditPassesAfterHeavyChurn)
{
    sim::Simulator s;
    RmbConfig cfg = testConfig(12, 3, 3);
    cfg.verify = VerifyLevel::Cheap; // audit manually below
    RmbNetwork net(s, cfg);
    sim::Random rng(3);
    for (int round = 0; round < 5; ++round) {
        const auto pairs =
            workload::randomPartialPermutation(12, 8, rng);
        for (const auto &[src, dst] : pairs)
            net.send(src, dst, 24);
        s.runFor(500);
        net.auditInvariants();
    }
    runToQuiescence(s, net);
    EXPECT_TRUE(net.quiescent());
    net.auditInvariants();
}

TEST(RmbNetworkDeathTest, SelfMessageRejected)
{
    sim::Simulator s;
    RmbNetwork net(s, testConfig(8, 3));
    EXPECT_DEATH(net.send(3, 3, 8), "self");
}

TEST(RmbNetworkDeathTest, OutOfRangeNodeRejected)
{
    sim::Simulator s;
    RmbNetwork net(s, testConfig(8, 3));
    EXPECT_DEATH(net.send(0, 8, 8), "out of range");
}

TEST(RmbNetworkDeathTest, ZeroBusesIsFatal)
{
    sim::Simulator s;
    RmbConfig cfg = testConfig(8, 3);
    cfg.numBuses = 0;
    EXPECT_EXIT(RmbNetwork(s, cfg), ::testing::ExitedWithCode(1),
                "at least one bus");
}

TEST(RmbNetwork, ZeroPayloadMessageStillDelivered)
{
    // A header + FF with no data flits is legal.
    sim::Simulator s;
    RmbNetwork net(s, testConfig(8, 3));
    const auto id = net.send(0, 1, 0);
    runToQuiescence(s, net);
    EXPECT_EQ(net.message(id).state, net::MessageState::Delivered);
}

TEST(RmbNetwork, FullRingPathWorks)
{
    // dst = src - 1 (mod N): the longest clockwise path, N-1 hops.
    sim::Simulator s;
    RmbNetwork net(s, testConfig(8, 3));
    const auto id = net.send(3, 2, 16);
    runToQuiescence(s, net);
    const net::Message &m = net.message(id);
    EXPECT_EQ(m.state, net::MessageState::Delivered);
    EXPECT_EQ(net.stats().pathLength.max(), 7.0);
}

} // namespace
} // namespace core
} // namespace rmb
