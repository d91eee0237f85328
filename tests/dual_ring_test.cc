/**
 * @file
 * Tests for the dual counter-rotating ring RMB (paper section 2.1's
 * "two parallel unidirectional rings"), built by the ring composer
 * as two rings: ring 0 clockwise, ring 1 the reflected
 * counter-clockwise plane.
 */

#include <functional>

#include <gtest/gtest.h>

#include "rmb/network.hh"
#include "rmb/ring_graph.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"

namespace rmb {
namespace core {
namespace {

constexpr std::uint32_t kClockwise = 0;
constexpr std::uint32_t kCounterClockwise = 1;

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

/** Send one message and report which plane's engine carried it. */
std::uint32_t
planeOf(RingGraph &net, net::NodeId src, net::NodeId dst)
{
    const std::uint64_t cw_before =
        net.ringEngine(kClockwise).numMessages();
    net.send(src, dst, 8);
    return net.ringEngine(kClockwise).numMessages() > cw_before
               ? kClockwise
               : kCounterClockwise;
}

TEST(DualRing, ShortPathsPickTheRightPlane)
{
    sim::Simulator s;
    const auto net = makeDualRing(s, cfg(16, 2));
    EXPECT_EQ(planeOf(*net, 0, 3), kClockwise); // 3 hops CW vs 13 CCW
    EXPECT_EQ(planeOf(*net, 0, 13),
              kCounterClockwise);               // 13 CW vs 3 CCW
    EXPECT_EQ(planeOf(*net, 0, 8), kClockwise); // 8 = 8: tie -> CW
    EXPECT_EQ(net->ringEngine(kClockwise).numMessages(), 2u);
    EXPECT_EQ(net->ringEngine(kCounterClockwise).numMessages(), 1u);
    runToQuiescence(s, *net);
    EXPECT_TRUE(net->quiescent());
}

/**
 * The planes run on the network's clock and feed their circuit and
 * live-bus levels into the network's, so its peak is the exact peak
 * of the sum and its average the sum of the planes' averages.
 */
TEST(DualRing, CircuitLevelsSumThePlanes)
{
    sim::Simulator s;
    const auto net = makeDualRing(s, cfg(16, 2));
    sim::Random rng(3);
    for (const auto &[src, dst] :
         workload::toPairs(workload::randomFullTraffic(16, rng)))
        net->send(src, dst, 32);
    runToQuiescence(s, *net);
    ASSERT_TRUE(net->quiescent());

    const sim::Tick now = s.now();
    const sim::LevelTracker &circuits = net->stats().activeCircuits;
    const sim::LevelTracker &cw =
        net->ringEngine(kClockwise).stats().activeCircuits;
    const sim::LevelTracker &ccw =
        net->ringEngine(kCounterClockwise).stats().activeCircuits;
    EXPECT_TRUE(circuits.peakKnown());
    EXPECT_GT(circuits.maximum(), 0);
    EXPECT_GE(circuits.maximum(),
              std::max(cw.maximum(), ccw.maximum()));
    EXPECT_LE(circuits.maximum(), cw.maximum() + ccw.maximum());
    EXPECT_EQ(circuits.current(), 0);
    EXPECT_GT(circuits.average(now), 0.0);
    EXPECT_DOUBLE_EQ(circuits.average(now),
                     cw.average(now) + ccw.average(now));

    const sim::LevelTracker &buses = net->rmbStats().liveBuses;
    EXPECT_GT(buses.maximum(), 0);
    EXPECT_DOUBLE_EQ(
        buses.average(now),
        net->ringEngine(kClockwise).rmbStats().liveBuses.average(now) +
            net->ringEngine(kCounterClockwise)
                .rmbStats()
                .liveBuses.average(now));
}

TEST(DualRing, DeliveryMirrorsPlaneTimestamps)
{
    sim::Simulator s;
    const auto net = makeDualRing(s, cfg(16, 2));
    const auto id = net->send(5, 1, 16); // CCW (4 hops vs 12)
    runToQuiescence(s, *net);
    const net::Message &m = net->message(id);
    EXPECT_EQ(m.state, net::MessageState::Delivered);
    EXPECT_LE(m.created, m.firstAttempt);
    EXPECT_LT(m.firstAttempt, m.established);
    EXPECT_LT(m.established, m.delivered);
    // 4 hops were used, not 12.
    EXPECT_EQ(net->stats().pathLength.max(), 4.0);
}

TEST(DualRing, HalvesWorstCaseDistance)
{
    // Tornado traffic (dst = src + N/2) is the ring's worst case;
    // the dual ring must beat the single ring clearly on everything
    // *shorter* than N/2.  Compare rotation by N/4: single ring
    // pays N/4 hops for half the... every message; dual ring routes
    // them all CW with N/4 hops but has double buses.  Use rotation
    // by 3N/4 where the single ring pays 3N/4 and the dual pays N/4.
    const std::uint32_t n = 16;
    sim::Simulator s1;
    RmbNetwork single(s1, cfg(n, 2, 3));
    sim::Simulator s2;
    const auto dual = makeDualRing(s2, cfg(n, 2, 3));
    const auto pairs =
        workload::toPairs(workload::rotation(n, 12)); // 12 = 3N/4
    const auto r1 = workload::runBatch(single, pairs, 24);
    const auto r2 = workload::runBatch(*dual, pairs, 24);
    ASSERT_TRUE(r1.completed);
    ASSERT_TRUE(r2.completed);
    EXPECT_LT(r2.makespan * 2, r1.makespan);
    EXPECT_EQ(dual->stats().pathLength.max(), 4.0);
}

TEST(DualRing, RandomPermutationsComplete)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        sim::Simulator s;
        const auto net = makeDualRing(s, cfg(16, 2, seed));
        sim::Random rng(seed * 17);
        const auto pairs = workload::toPairs(
            workload::randomFullTraffic(16, rng));
        const auto r = workload::runBatch(*net, pairs, 24);
        EXPECT_TRUE(r.completed) << "seed " << seed;
        EXPECT_EQ(r.delivered, pairs.size());
    }
}

TEST(DualRing, PlanesShareNoState)
{
    sim::Simulator s;
    const auto net = makeDualRing(s, cfg(8, 2));
    // Saturate the CW plane; CCW traffic must be unaffected.
    net->send(0, 2, 4'000);
    net->send(2, 4, 4'000);
    s.runFor(100);
    const auto id = net->send(4, 2, 8); // 6 CW vs 2 CCW -> CCW plane
    EXPECT_EQ(net->ringEngine(kCounterClockwise).numMessages(), 1u);
    runToQuiescence(s, *net, 100'000);
    const net::Message &m = net->message(id);
    EXPECT_EQ(m.state, net::MessageState::Delivered);
    EXPECT_EQ(m.nacks, 0u);
    runToQuiescence(s, *net);
}

TEST(DualRing, StatsAggregateAcrossPlanes)
{
    sim::Simulator s;
    const auto net = makeDualRing(s, cfg(16, 2));
    net->send(0, 4, 16);  // CW
    net->send(0, 12, 16); // CCW
    runToQuiescence(s, *net);
    EXPECT_EQ(net->stats().delivered, 2u);
    EXPECT_EQ(net->stats().injected, 2u);
    EXPECT_EQ(net->stats().setupLatency.count(), 2u);
    EXPECT_GT(net->rmbStats().compactionMoves.value(), 0u);
    EXPECT_EQ(net->rmbStats().compactionMoves.value(),
              net->ringEngine(kClockwise).rmbStats().compactionMoves
                      .value() +
                  net->ringEngine(kCounterClockwise)
                      .rmbStats()
                      .compactionMoves.value());
}

/**
 * A leg that exhausts its retries dead-letters its whole message, on
 * every shape.  A long message from node 2 to node 4 hogs a receive
 * port, and a short rival from node 1 to node 4 runs into it on the
 * same ring: at node 4 on the dual ring's clockwise plane, at the
 * turning node 0 that ends both first (dimension-0) legs on the
 * torus and the grid.
 */
TEST(RingShapes, FailurePropagates)
{
    const std::vector<std::pair<
        const char *, std::function<std::unique_ptr<RingGraph>(
                          sim::Simulator &, const RmbConfig &)>>>
        shapes = {
            {"dual ring 16",
             [](sim::Simulator &s, const RmbConfig &c) {
                 return makeDualRing(s, c);
             }},
            {"torus 4x4",
             [](sim::Simulator &s, const RmbConfig &c) {
                 return makeTorus(s, 4, 4, c);
             }},
            {"grid 4x2x2",
             [](sim::Simulator &s, const RmbConfig &c) {
                 return makeGrid(s, {4, 2, 2}, c);
             }},
        };
    for (const auto &[name, make] : shapes) {
        SCOPED_TRACE(name);
        sim::Simulator s;
        RmbConfig c = cfg(16, 2);
        c.maxRetries = 1;
        c.retryBackoffMin = 2;
        c.retryBackoffMax = 4;
        const auto net = make(s, c);
        const auto hog = net->send(2, 4, 50'000);
        s.runFor(100);
        const auto rival = net->send(1, 4, 8);
        runToQuiescence(s, *net, 300'000);
        EXPECT_EQ(net->message(hog).state,
                  net::MessageState::Delivered);
        EXPECT_EQ(net->message(rival).state,
                  net::MessageState::Failed);
        EXPECT_EQ(net->stats().failed, 1u);
        EXPECT_EQ(net->metrics()
                      .counter("rmb.deadletter.retries_exhausted")
                      .value(),
                  1u);
        EXPECT_TRUE(net->quiescent());
    }
}

} // namespace
} // namespace core
} // namespace rmb
