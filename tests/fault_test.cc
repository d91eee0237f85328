/**
 * @file
 * Fault-injection tests: the RMB routes and compacts around
 * permanently failed bus segments, degrading capacity gracefully.
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
cfg(std::uint32_t n, std::uint32_t k, std::uint64_t seed = 1)
{
    RmbConfig c;
    c.numNodes = n;
    c.numBuses = k;
    c.seed = seed;
    c.verify = VerifyLevel::Full;
    return c;
}

void
runToQuiescence(sim::Simulator &s, net::Network &net,
                sim::Tick limit = 2'000'000)
{
    while (!net.quiescent() && s.now() < limit)
        s.run(256);
}

TEST(Fault, SingleFaultedSegmentIsAvoided)
{
    sim::Simulator s;
    RmbNetwork net(s, cfg(16, 4));
    net.failSegment(5, 1);
    EXPECT_TRUE(net.segments().faulted(5, 1));
    EXPECT_EQ(net.segments().faultyCount(), 1u);
    const auto id = net.send(2, 9, 64); // crosses gap 5
    runToQuiescence(s, net);
    EXPECT_EQ(net.message(id).state, net::MessageState::Delivered);
    // The faulted cell never carried the bus.
    EXPECT_TRUE(net.segments().faulted(5, 1));
}

TEST(Fault, CompactionNeverMovesIntoAFault)
{
    sim::Simulator s;
    RmbNetwork net(s, cfg(12, 4));
    // Fault the bottom of every gap: circuits settle at level 1.
    for (GapId g = 0; g < 12; ++g)
        net.failSegment(g, 0);
    net.send(0, 6, 3'000);
    s.runFor(2'000);
    const auto ids = net.liveBusIds();
    ASSERT_EQ(ids.size(), 1u);
    for (const Hop &h : net.bus(ids[0])->hops) {
        EXPECT_GE(h.level, 1) << "gap " << h.gap;
        EXPECT_FALSE(net.segments().faulted(h.gap, h.level));
    }
    runToQuiescence(s, net);
    EXPECT_TRUE(net.quiescent());
}

TEST(Fault, ReducedCapacityStillServesWithinNewK)
{
    // k = 4 with one level faulted everywhere behaves like k = 3:
    // h-permutations of load <= 3 still complete.
    sim::Simulator s;
    RmbNetwork net(s, cfg(16, 4, 3));
    for (GapId g = 0; g < 16; ++g)
        net.failSegment(g, 2);
    sim::Random rng(9);
    workload::PairList pairs;
    for (int attempt = 0; attempt < 300; ++attempt) {
        auto cand = workload::randomPartialPermutation(16, 6, rng);
        if (workload::maxRingLoad(16, cand) <= 3) {
            pairs = std::move(cand);
            break;
        }
    }
    ASSERT_FALSE(pairs.empty());
    const auto r = workload::runBatch(net, pairs, 24, 4'000'000);
    EXPECT_TRUE(r.completed);
}

TEST(Fault, FaultedTopDisablesInjectionAtThatNode)
{
    sim::Simulator s;
    RmbConfig c = cfg(8, 2);
    c.maxRetries = 3;
    c.retryBackoffMin = 2;
    c.retryBackoffMax = 4;
    RmbNetwork net(s, c);
    net.failSegment(3, 1); // node 3's injection segment
    const auto blocked = net.send(3, 6, 8);
    const auto fine = net.send(2, 6, 8);
    s.runFor(200'000);
    // Node 3's message can never inject: it stays queued forever
    // (injection is not a Nack, so retries never accrue).
    EXPECT_EQ(net.message(blocked).state,
              net::MessageState::Queued);
    EXPECT_EQ(net.message(fine).state,
              net::MessageState::Delivered);
}

TEST(Fault, FullyFaultedGapPartitionsTheRing)
{
    sim::Simulator s;
    RmbConfig c = cfg(8, 2);
    c.maxRetries = 4;
    c.retryBackoffMin = 2;
    c.retryBackoffMax = 4;
    RmbNetwork net(s, c);
    net.failSegment(4, 0);
    net.failSegment(4, 1);
    // 2 -> 6 must cross gap 4: fails after bounded retries.
    const auto doomed = net.send(2, 6, 8);
    // 5 -> 2 wraps the other way around (gaps 5,6,7,0,1): fine.
    const auto fine = net.send(5, 2, 8);
    runToQuiescence(s, net, 500'000);
    EXPECT_EQ(net.message(doomed).state,
              net::MessageState::Failed);
    EXPECT_EQ(net.message(fine).state,
              net::MessageState::Delivered);
    EXPECT_TRUE(net.quiescent());
}

TEST(Fault, ThroughputDegradesGracefullyWithFaults)
{
    // Random permutation makespan grows smoothly as random (non-top)
    // segments die.
    double makespan_0 = 0.0;
    double makespan_8 = 0.0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (const std::uint32_t faults : {0u, 8u}) {
            sim::Simulator s;
            RmbNetwork net(s, cfg(16, 4, seed));
            sim::Random frng(seed * 7);
            std::uint32_t injected = 0;
            while (injected < faults) {
                const auto g = static_cast<GapId>(
                    frng.uniformInt(16));
                const auto l = static_cast<Level>(
                    frng.uniformInt(3)); // never the top
                if (!net.segments().faulted(g, l)) {
                    net.failSegment(g, l);
                    ++injected;
                }
            }
            sim::Random rng(seed * 31);
            const auto pairs = workload::toPairs(
                workload::randomFullTraffic(16, rng));
            const auto r =
                workload::runBatch(net, pairs, 24, 4'000'000);
            ASSERT_TRUE(r.completed);
            (faults == 0 ? makespan_0 : makespan_8) +=
                static_cast<double>(r.makespan);
        }
    }
    EXPECT_GT(makespan_8, makespan_0);
    EXPECT_LT(makespan_8, makespan_0 * 6.0);
}

TEST(Fault, EagerDescentAvoidsLowLevelFaultTraps)
{
    // Historically a reproduction finding: with PreferLowest
    // headers, a gap whose *low* levels are faulted was a
    // deterministic trap - the header had eagerly descended to
    // level 0 by the time it arrived and could only reach {0, 1},
    // both dead, while levels 2..3 sat free.  The fault lookahead in
    // tryAdvance now skips descent targets whose onward levels are
    // all faulted, so both policies deliver.
    for (const HeaderPolicy policy :
         {HeaderPolicy::PreferLowest,
          HeaderPolicy::PreferStraight}) {
        sim::Simulator s;
        RmbConfig c = cfg(16, 4);
        c.headerPolicy = policy;
        c.maxRetries = 5;
        c.retryBackoffMin = 2;
        c.retryBackoffMax = 4;
        RmbNetwork net(s, c);
        net.failSegment(8, 0);
        net.failSegment(8, 1);
        const auto id = net.send(2, 12, 16);
        runToQuiescence(s, net, 500'000);
        EXPECT_EQ(net.message(id).state,
                  net::MessageState::Delivered)
            << "policy " << static_cast<int>(policy);
    }
}

// ----------------------------------------------------------------
// Transient faults: severing live buses and recovering the message
// (RmbConfig::transientFaults; docs/FAULTS.md).
// ----------------------------------------------------------------

TEST(Fault, TransientFaultSeversEstablishedBusAndRedelivers)
{
    sim::Simulator s;
    RmbConfig c = cfg(12, 3);
    c.transientFaults = true;
    c.maxRetries = 20;
    RmbNetwork net(s, c);
    const auto id = net.send(1, 7, 4'000);

    // Run until the circuit is established and streaming.
    while (net.message(id).state != net::MessageState::Streaming &&
           s.now() < 100'000) {
        s.run(16);
    }
    ASSERT_EQ(net.message(id).state, net::MessageState::Streaming);
    const auto ids = net.liveBusIds();
    ASSERT_EQ(ids.size(), 1u);

    // Fault a settled mid-path segment out from under the bus.
    Hop target{};
    bool found = false;
    for (const Hop &h : net.bus(ids[0])->hops) {
        if (!h.inMove()) {
            target = h;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found);
    net.failSegment(target.gap, target.level);

    // Severed: hop-by-hop teardown, source notified, message
    // re-queued - and eventually redelivered around the fault.
    EXPECT_EQ(net.rmbStats().busesSevered, 1u);
    EXPECT_EQ(net.message(id).state, net::MessageState::Setup);
    runToQuiescence(s, net, 4'000'000);
    EXPECT_EQ(net.message(id).state, net::MessageState::Delivered);
    EXPECT_GE(net.message(id).retries, 1u);
    EXPECT_EQ(net.rmbStats().messagesRecovered, 1u);
    EXPECT_EQ(net.rmbStats().messagesLost, 0u);
    EXPECT_EQ(net.rmbStats().recoveryLatency.count(), 1u);
    net.auditInvariants();
    s.runFor(2'000); // drain the trailing Fack
    EXPECT_EQ(net.segments().occupiedCount(), 0u);
    EXPECT_EQ(net.segments().faultyCount(), 1u);
}

TEST(Fault, RepairRestoresInjectionAtThatNode)
{
    sim::Simulator s;
    RmbNetwork net(s, cfg(8, 2));
    net.failSegment(3, 1); // node 3's injection segment
    const auto id = net.send(3, 6, 8);
    s.runFor(5'000);
    EXPECT_EQ(net.message(id).state, net::MessageState::Queued);
    net.repairSegment(3, 1);
    EXPECT_FALSE(net.segments().faulted(3, 1));
    runToQuiescence(s, net, 500'000);
    EXPECT_EQ(net.message(id).state, net::MessageState::Delivered);
    EXPECT_EQ(net.rmbStats().faultsInjected, 1u);
    EXPECT_EQ(net.rmbStats().faultsRepaired, 1u);
}

TEST(Fault, MidMoveFaultOnTargetCancelsTheMove)
{
    sim::Simulator s;
    RmbConfig c = cfg(10, 4);
    c.transientFaults = true;
    c.cyclePeriodMin = 40; // long cycles: wide make->break window
    c.cyclePeriodMax = 60;
    RmbNetwork net(s, c);
    const auto id = net.send(1, 6, 100'000); // hold the bus a while

    // Catch a hop mid-move (make done, break still pending).
    GapId g = 0;
    Level from = kNoLevel;
    Level to = kNoLevel;
    for (int i = 0; i < 20'000 && to == kNoLevel; ++i) {
        s.run(1);
        for (const VirtualBusId bid : net.liveBusIds()) {
            for (const Hop &h : net.bus(bid)->hops) {
                if (h.inMove()) {
                    g = h.gap;
                    from = h.level;
                    to = h.dualLevel;
                    break;
                }
            }
        }
    }
    ASSERT_NE(to, kNoLevel) << "no compaction move observed";

    // Kill the move *target*: the move is cancelled, the hop stays
    // on its (live) old level, and the bus survives.
    net.failSegment(g, to);
    EXPECT_EQ(net.rmbStats().busesSevered, 0u);
    const auto ids = net.liveBusIds();
    ASSERT_EQ(ids.size(), 1u);
    for (const Hop &h : net.bus(ids[0])->hops) {
        if (h.gap == g) {
            EXPECT_EQ(h.level, from);
            EXPECT_FALSE(h.inMove());
        }
    }
    net.repairSegment(g, to);
    runToQuiescence(s, net, 4'000'000);
    EXPECT_EQ(net.message(id).state, net::MessageState::Delivered);
}

TEST(Fault, MidMoveFaultOnOldLevelCompletesTheMove)
{
    sim::Simulator s;
    RmbConfig c = cfg(10, 4);
    c.transientFaults = true;
    c.cyclePeriodMin = 40;
    c.cyclePeriodMax = 60;
    RmbNetwork net(s, c);
    const auto id = net.send(1, 6, 100'000);

    GapId g = 0;
    Level from = kNoLevel;
    Level to = kNoLevel;
    for (int i = 0; i < 20'000 && to == kNoLevel; ++i) {
        s.run(1);
        for (const VirtualBusId bid : net.liveBusIds()) {
            for (const Hop &h : net.bus(bid)->hops) {
                if (h.inMove()) {
                    g = h.gap;
                    from = h.level;
                    to = h.dualLevel;
                    break;
                }
            }
        }
    }
    ASSERT_NE(to, kNoLevel) << "no compaction move observed";

    // Kill the *old* level mid-move: make-before-break means the new
    // segment already carries the signal, so the move completes
    // early instead of severing.
    net.failSegment(g, from);
    EXPECT_EQ(net.rmbStats().busesSevered, 0u);
    const auto ids = net.liveBusIds();
    ASSERT_EQ(ids.size(), 1u);
    for (const Hop &h : net.bus(ids[0])->hops) {
        if (h.gap == g) {
            EXPECT_EQ(h.level, to);
            EXPECT_FALSE(h.inMove());
        }
    }
    runToQuiescence(s, net, 4'000'000);
    EXPECT_EQ(net.message(id).state, net::MessageState::Delivered);
}

TEST(Fault, WatchdogRescuesWaitModeDeadlock)
{
    // k = 1 with Wait blocking and three overlapping paths is a
    // textbook hold-and-wait cycle; without a timeout it wedges
    // forever.  The watchdog sees the blocked buses make no progress
    // and severs them; backoff jitter then breaks the symmetry.
    sim::Simulator s;
    RmbConfig c = cfg(6, 1);
    c.blocking = BlockingPolicy::Wait;
    c.transientFaults = true;
    c.watchdogTimeout = 300;
    RmbNetwork net(s, c);
    const auto a = net.send(0, 3, 16); // gaps 0,1,2
    const auto b = net.send(2, 5, 16); // gaps 2,3,4
    const auto d = net.send(4, 1, 16); // gaps 4,5,0
    runToQuiescence(s, net, 2'000'000);
    EXPECT_EQ(net.message(a).state, net::MessageState::Delivered);
    EXPECT_EQ(net.message(b).state, net::MessageState::Delivered);
    EXPECT_EQ(net.message(d).state, net::MessageState::Delivered);
    EXPECT_GE(net.rmbStats().watchdogFires, 1u);
    EXPECT_EQ(net.rmbStats().watchdogFires,
              net.rmbStats().busesSevered);
    net.auditInvariants();
}

TEST(FaultDeathTest, CannotFaultAnOccupiedSegment)
{
    sim::Simulator s;
    RmbConfig c = cfg(8, 2);
    c.cyclePeriodMin = c.cyclePeriodMax = 1000; // freeze compaction
    RmbNetwork net(s, c);
    net.send(0, 4, 1'000);
    s.run(2); // injection done: (0, top) occupied
    EXPECT_DEATH(net.failSegment(0, 1), "free segment");
    // The refusal is actionable: it names the segment and the
    // occupying bus, and points at the transient-fault switch.
    EXPECT_DEATH(net.failSegment(0, 1), "held by virtual bus");
    EXPECT_DEATH(net.failSegment(0, 1), "transientFaults");
    while (!net.quiescent())
        s.run(1024);
}

} // namespace
} // namespace core
} // namespace rmb
