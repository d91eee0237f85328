/**
 * @file
 * Tests for the 2-D grid of RMB rings (paper section 4 future
 * work), built by the ring composer: row rings y = 0..H-1 first,
 * then column rings x = 0..W-1.
 */

#include <gtest/gtest.h>

#include "obs/sinks.hh"
#include "rmb/network.hh"
#include "rmb/ring_graph.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"

namespace rmb {
namespace core {
namespace {

RmbConfig
ringCfg(std::uint32_t k, std::uint64_t seed = 1)
{
    RmbConfig c;
    c.numBuses = k;
    c.seed = seed;
    c.verify = VerifyLevel::Full;
    return c;
}

void
runToQuiescence(sim::Simulator &s, net::Network &net,
                sim::Tick limit = 4'000'000)
{
    while (!net.quiescent() && s.now() < limit)
        s.run(256);
}

/** Ring legs launched so far, over every ring. */
std::uint64_t
legsLaunched(const RingGraph &net)
{
    std::uint64_t legs = 0;
    for (std::uint32_t r = 0; r < net.numRings(); ++r)
        legs += net.ringEngine(r).numMessages();
    return legs;
}

TEST(Torus, RowOnlyMessage)
{
    sim::Simulator s;
    const auto net = makeTorus(s, 4, 4, ringCfg(2));
    // (0,1) = node 4 -> (3,1) = node 7: row leg only, 3 hops.
    const auto id = net->send(4, 7, 16);
    runToQuiescence(s, *net);
    EXPECT_EQ(net->message(id).state, net::MessageState::Delivered);
    EXPECT_EQ(net->stats().pathLength.max(), 3.0);
    EXPECT_EQ(legsLaunched(*net), 1u);
    EXPECT_EQ(net->ringEngine(1).numMessages(), 1u); // row ring y = 1
}

TEST(Torus, ColumnOnlyMessage)
{
    sim::Simulator s;
    const auto net = makeTorus(s, 4, 4, ringCfg(2));
    // (2,0) = node 2 -> (2,3) = node 14: column leg only, 3 hops.
    const auto id = net->send(2, 14, 16);
    runToQuiescence(s, *net);
    EXPECT_EQ(net->message(id).state, net::MessageState::Delivered);
    EXPECT_EQ(net->stats().pathLength.max(), 3.0);
    EXPECT_EQ(legsLaunched(*net), 1u);
    EXPECT_EQ(net->ringEngine(4 + 2).numMessages(), 1u); // column x = 2
}

TEST(Torus, CornerTurnMessage)
{
    sim::Simulator s;
    const auto net = makeTorus(s, 4, 4, ringCfg(2));
    // (0,0) -> (2,3) = node 14: 2 row hops + 3 column hops.
    const auto id = net->send(0, 14, 16);
    runToQuiescence(s, *net);
    const net::Message &m = net->message(id);
    EXPECT_EQ(m.state, net::MessageState::Delivered);
    EXPECT_EQ(net->stats().pathLength.max(), 5.0);
    EXPECT_EQ(legsLaunched(*net), 2u);
    EXPECT_LE(m.created, m.firstAttempt);
    EXPECT_LT(m.firstAttempt, m.established);
    EXPECT_LT(m.established, m.delivered);
}

TEST(Torus, WrapAroundUsesRingGeometry)
{
    sim::Simulator s;
    const auto net = makeTorus(s, 4, 4, ringCfg(2));
    // (3,0) -> (0,0): one clockwise row hop (3 -> 0 wraps).
    net->send(3, 0, 8);
    runToQuiescence(s, *net);
    EXPECT_EQ(net->stats().pathLength.max(), 1.0);
}

TEST(Torus, RandomPermutationsComplete)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        sim::Simulator s;
        const auto net = makeTorus(s, 4, 4, ringCfg(2, seed));
        sim::Random rng(seed * 23);
        const auto pairs = workload::toPairs(
            workload::randomFullTraffic(16, rng));
        const auto r = workload::runBatch(*net, pairs, 24);
        EXPECT_TRUE(r.completed) << "seed " << seed;
        EXPECT_EQ(r.delivered, pairs.size());
    }
}

TEST(Torus, RectangularGrid)
{
    sim::Simulator s;
    const auto net = makeTorus(s, 8, 2, ringCfg(2));
    EXPECT_EQ(net->numNodes(), 16u);
    EXPECT_EQ(net->ringEngine(0).numNodes(), 8u); // row y = 0
    EXPECT_EQ(net->ringEngine(2).numNodes(), 2u); // column x = 0
    net->send(0, 15, 16); // (0,0) -> (7,1): 7 row + 1 column hops
    runToQuiescence(s, *net);
    EXPECT_EQ(net->stats().pathLength.max(), 8.0);
}

TEST(Torus, ShorterPathsThanSingleRingAtScale)
{
    // 16 nodes as a 4x4 torus of rings vs one 16-ring: mean path
    // must drop (<= W/2-ish + H/2-ish vs N/2).
    sim::Simulator s1;
    RmbNetwork ring(s1, [] {
        RmbConfig c;
        c.numNodes = 16;
        c.numBuses = 2;
        return c;
    }());
    sim::Simulator s2;
    const auto torus = makeTorus(s2, 4, 4, ringCfg(2));
    sim::Random rng(5);
    const auto pairs =
        workload::toPairs(workload::randomFullTraffic(16, rng));
    const auto r1 = workload::runBatch(ring, pairs, 24);
    const auto r2 = workload::runBatch(*torus, pairs, 24);
    ASSERT_TRUE(r1.completed);
    ASSERT_TRUE(r2.completed);
    EXPECT_LT(torus->stats().pathLength.mean(),
              ring.stats().pathLength.mean());
    EXPECT_LT(r2.makespan, r1.makespan);
}

TEST(Torus, CompactionRunsInAllRings)
{
    sim::Simulator s;
    const auto net = makeTorus(s, 4, 4, ringCfg(3));
    for (net::NodeId i = 0; i < 16; ++i)
        net->send(i, (i + 5) % 16, 200);
    runToQuiescence(s, *net);
    EXPECT_TRUE(net->quiescent());
    EXPECT_GT(net->rmbStats().compactionMoves.value(), 0u);
}

/**
 * One fault process over the composed domain: every fault the torus
 * counts is a trace event, and the ledger identity
 * delivered + dead-lettered + in-flight == injected holds at every
 * audit while faults sever legs and bounded retries write messages
 * off.
 */
TEST(Torus, OneFaultProcessOverTheComposedDomain)
{
    RmbConfig c = ringCfg(2, 5);
    c.transientFaults = true;
    c.faultMtbf = 200;
    c.faultMttrMin = 100;
    c.faultMttrMax = 400;
    c.maxRetries = 3;
    obs::CountingSink trace; // outlives the network
    sim::Simulator s;
    const auto net = makeTorus(s, 4, 4, c);
    // Row gaps, then column gaps: every PE sits on two rings.
    EXPECT_EQ(net->faultDomainGaps(), 32u);
    net->setTraceSink(&trace);

    sim::Random rng(c.seed);
    const std::uint64_t messages = 300;
    for (std::uint64_t i = 0; i < messages; ++i) {
        const auto src = static_cast<net::NodeId>(rng.uniformInt(16));
        auto dst = static_cast<net::NodeId>(rng.uniformInt(15));
        if (dst >= src)
            ++dst;
        s.schedule(rng.uniformRange(0, 20'000), [&net, src, dst] {
            net->send(src, dst, 16);
        });
    }
    const auto audit = [&] {
        net->auditInvariants();
        std::uint64_t in_flight = 0;
        for (net::MessageId id = 1; id <= net->numMessages(); ++id) {
            const net::MessageState st = net->message(id).state;
            in_flight += st != net::MessageState::Delivered &&
                         st != net::MessageState::Failed;
        }
        EXPECT_EQ(net->stats().delivered.value() +
                      net->rmbStats().deadLettered.value() + in_flight,
                  net->stats().injected.value());
    };
    sim::Tick t = 0;
    while (t < 20'001 || (!net->quiescent() && t < 2'000'000)) {
        t += 1000;
        s.runUntil(t);
        audit();
    }
    ASSERT_TRUE(net->quiescent());
    EXPECT_EQ(net->stats().injected.value(), messages);
    const std::uint64_t injected =
        net->rmbStats().faultsInjected.value();
    EXPECT_GT(injected, 0u);
    EXPECT_EQ(trace.count(obs::EventKind::SegmentFail), injected);
    EXPECT_EQ(net->rmbStats().deadLettered.value(),
              net->stats().failed.value());
}

TEST(TorusDeathTest, DegenerateGridFatal)
{
    sim::Simulator s;
    EXPECT_EXIT(makeTorus(s, 1, 4, ringCfg(2)),
                ::testing::ExitedWithCode(1), "width and height");
}

} // namespace
} // namespace core
} // namespace rmb
