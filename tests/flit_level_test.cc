/**
 * @file
 * Tests of the detailed flit-level data plane: Dack flow control,
 * the paper's flit-contiguity guarantee, and cross-validation
 * against the closed-form pipeline model.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "rmb/network.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"

namespace rmb {
namespace core {
namespace {

RmbConfig
cfg(std::uint32_t n, std::uint32_t k, bool detailed,
    std::uint32_t window = 8)
{
    RmbConfig c;
    c.numNodes = n;
    c.numBuses = k;
    c.detailedFlits = detailed;
    c.dackWindow = window;
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

using Point = std::tuple<std::uint32_t /*dst*/, std::uint32_t
                         /*payload*/>;

class FlitCrossValidation : public ::testing::TestWithParam<Point>
{
};

TEST_P(FlitCrossValidation, DetailedMatchesClosedFormWhenUnthrottled)
{
    // With a window wide enough that Dacks never throttle the pump,
    // the detailed per-flit simulation must produce the *exact*
    // closed-form delivery time.
    const auto [dst, payload] = GetParam();
    sim::Tick detailed_time = 0;
    sim::Tick closed_time = 0;
    for (const bool detailed : {true, false}) {
        sim::Simulator s;
        RmbNetwork net(s, cfg(16, 3, detailed, 100'000));
        const auto id = net.send(0, dst, payload);
        runToQuiescence(s, net);
        const net::Message &m = net.message(id);
        ASSERT_EQ(m.state, net::MessageState::Delivered);
        (detailed ? detailed_time : closed_time) =
            m.totalLatency();
    }
    EXPECT_EQ(detailed_time, closed_time);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FlitCrossValidation,
    ::testing::Values(Point{1, 0}, Point{1, 1}, Point{1, 16},
                      Point{4, 0}, Point{4, 7}, Point{4, 64},
                      Point{8, 3}, Point{8, 32}, Point{15, 1},
                      Point{15, 100}),
    [](const ::testing::TestParamInfo<Point> &info) {
        // Appended piece by piece: "d" + std::to_string(...) makes
        // GCC 12 warn (-Wrestrict, a false positive) in Release.
        std::string name = "d";
        name += std::to_string(std::get<0>(info.param));
        name += 'p';
        name += std::to_string(std::get<1>(info.param));
        return name;
    });

TEST(FlitLevel, TightWindowThrottlesMonotonically)
{
    // Long path (12 hops): the Dack round trip is 12*1 + 12*2 = 36
    // ticks per flit; windows below that rate-limit the stream.
    sim::Tick previous = 0;
    for (const std::uint32_t window : {1u, 2u, 4u, 64u}) {
        sim::Simulator s;
        RmbNetwork net(s, cfg(16, 3, true, window));
        const auto id = net.send(0, 12, 40);
        runToQuiescence(s, net);
        const net::Message &m = net.message(id);
        ASSERT_EQ(m.state, net::MessageState::Delivered);
        if (previous != 0) {
            EXPECT_LE(m.totalLatency(), previous)
                << "window " << window;
        }
        previous = m.totalLatency();
    }
}

TEST(FlitLevel, WindowOneRateIsDackRoundTrip)
{
    // With window 1 each flit waits for the previous flit's Dack:
    // per-flit period = path*flit + path*ack.
    sim::Simulator s;
    RmbConfig c = cfg(16, 3, true, 1);
    RmbNetwork net(s, c);
    const std::uint32_t hops = 6;
    const std::uint32_t payload = 10;
    const auto id = net.send(0, hops, payload);
    runToQuiescence(s, net);
    const net::Message &m = net.message(id);
    ASSERT_EQ(m.state, net::MessageState::Delivered);
    const sim::Tick per_flit =
        hops * c.flitDelay + hops * c.ackHopDelay;
    // payload flits gated by Dacks + the FF, plus setup and the
    // first flit's departure offset.
    const sim::Tick stream = m.delivered - m.established;
    EXPECT_EQ(stream, c.flitDelay +                 // first depart
                          payload * per_flit +      // gated flits
                          hops * c.flitDelay);      // FF transit
}

TEST(FlitLevel, DackCountMatchesPayload)
{
    // Every payload flit is Dacked; the FF is Facked instead.
    sim::Simulator s;
    RmbNetwork net(s, cfg(16, 3, true, 4));
    net.send(0, 5, 20);
    net.send(8, 13, 7);
    runToQuiescence(s, net);
    EXPECT_EQ(net.rmbStats().dacks, 20u + 7u);
}

TEST(FlitLevel, ContiguityHeldDuringCompaction)
{
    // The paper's claim: reconfiguration is transparent to the
    // flits.  Stream a long detailed message while churn drives
    // compaction; the built-in order/spacing asserts (Full verify)
    // plus the per-bus counters prove contiguity.
    sim::Simulator s;
    RmbNetwork net(s, cfg(16, 4, true, 16));
    const auto big = net.send(0, 9, 400);
    for (net::NodeId i = 1; i < 8; ++i)
        net.send(i, (i + 4) % 16, 30);
    runToQuiescence(s, net);
    const net::Message &m = net.message(big);
    EXPECT_EQ(m.state, net::MessageState::Delivered);
    EXPECT_GT(net.rmbStats().compactionMoves, 0u);
}

TEST(FlitLevel, PermutationCompletesDetailed)
{
    sim::Simulator s;
    RmbNetwork net(s, cfg(16, 4, true, 8));
    sim::Random rng(5);
    const auto pairs =
        workload::toPairs(workload::randomFullTraffic(16, rng));
    const auto r = workload::runBatch(net, pairs, 24, 4'000'000);
    EXPECT_TRUE(r.completed);
}

TEST(FlitLevel, SeverVoidsFlitsAndDacksInFlight)
{
    // Fault a middle segment of a streaming bus while a flit and a
    // Dack are both in flight.  The sever starts a new generation of
    // the bus, so the stale departures, arrivals and Dacks do nothing
    // (the built-in streaming asserts would panic on them), and the
    // retried message is delivered exactly once.
    sim::Simulator s;
    RmbConfig c = cfg(12, 3, true, 2);
    c.transientFaults = true;
    RmbNetwork net(s, c);
    int deliveries = 0;
    net.setDeliveryCallback([&](const net::Message &) { ++deliveries; });
    const auto id = net.send(1, 9, 40);

    const VirtualBus *bus = nullptr;
    const auto in_flight = [&] {
        const auto ids = net.liveBusIds();
        if (ids.size() != 1)
            return false;
        bus = net.bus(ids[0]);
        return bus->state == BusState::Streaming &&
               bus->flitsAcked >= 4 &&
               bus->flitsSent > bus->flitsAtDst &&
               bus->flitsAtDst > bus->flitsAcked;
    };
    while (!in_flight() && s.now() < 100'000)
        s.run(1);
    ASSERT_TRUE(in_flight());

    const Hop &mid = bus->hops[bus->hops.size() / 2];
    ASSERT_FALSE(mid.inMove());
    net.failSegment(mid.gap, mid.level);
    EXPECT_EQ(net.rmbStats().busesSevered, 1u);

    runToQuiescence(s, net, 4'000'000);
    EXPECT_EQ(net.message(id).state, net::MessageState::Delivered);
    EXPECT_EQ(deliveries, 1);
    EXPECT_EQ(net.rmbStats().messagesRecovered, 1u);
    // The 4 Dacks that landed before the sever, then all 40 again.
    EXPECT_EQ(net.rmbStats().dacks, 44u);
}

TEST(FlitLevel, ZeroPayloadOnlyFinalFlit)
{
    sim::Simulator s;
    RmbNetwork net(s, cfg(8, 2, true, 4));
    const auto id = net.send(0, 3, 0);
    runToQuiescence(s, net);
    EXPECT_EQ(net.message(id).state, net::MessageState::Delivered);
    EXPECT_EQ(net.rmbStats().dacks, 0u);
}

} // namespace
} // namespace core
} // namespace rmb
