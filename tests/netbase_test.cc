/**
 * @file
 * Direct tests of the netbase layer (message registry, lifecycle
 * hooks, callbacks) via a minimal test network.
 */

#include <gtest/gtest.h>

#include "netbase/network.hh"
#include "sim/simulator.hh"

namespace rmb {
namespace net {
namespace {

/** Trivially-deliverable network: every send completes after a
 *  fixed delay. */
class LoopNetwork : public Network
{
  public:
    LoopNetwork(sim::Simulator &simulator, NodeId n,
                sim::Tick delay)
        : Network(simulator, "Loop", n), delay_(delay)
    {}

    MessageId
    send(NodeId src, NodeId dst, std::uint32_t flits) override
    {
        Message &m = createMessage(src, dst, flits);
        const MessageId id = m.id;
        noteFirstAttempt(m);
        simulator().schedule(delay_ / 2, [this, id] {
            if (failed(id))
                return;
            noteEstablished(messageRef(id));
            noteCircuit(+1);
        });
        simulator().schedule(delay_, [this, id] {
            if (failed(id))
                return;
            noteCircuit(-1);
            noteDelivered(messageRef(id), 1);
        });
        return id;
    }

    /** Fail a message; its pending lifecycle events then do
     *  nothing. */
    void fail(MessageId id) { noteFailed(messageRef(id)); }

  private:
    bool
    failed(MessageId id)
    {
        return messageRef(id).state == MessageState::Failed;
    }

    sim::Tick delay_;
};

TEST(Netbase, MessageIdsAreOneBasedAndDense)
{
    sim::Simulator s;
    LoopNetwork net(s, 4, 10);
    EXPECT_EQ(net.send(0, 1, 5), 1u);
    EXPECT_EQ(net.send(1, 2, 5), 2u);
    EXPECT_EQ(net.send(2, 3, 5), 3u);
    EXPECT_EQ(net.numMessages(), 3u);
    EXPECT_EQ(net.message(2).src, 1u);
    s.run();
}

TEST(Netbase, LifecycleTimestampsAndStats)
{
    sim::Simulator s;
    LoopNetwork net(s, 4, 10);
    const auto id = net.send(0, 3, 7);
    s.run();
    const Message &m = net.message(id);
    EXPECT_EQ(m.state, MessageState::Delivered);
    EXPECT_EQ(m.established, 5u);
    EXPECT_EQ(m.delivered, 10u);
    EXPECT_EQ(m.payloadFlits, 7u);
    EXPECT_EQ(net.stats().delivered, 1u);
    EXPECT_DOUBLE_EQ(net.stats().totalLatency.mean(), 10.0);
    EXPECT_DOUBLE_EQ(net.stats().pathLength.mean(), 1.0);
    EXPECT_EQ(net.stats().activeCircuits.maximum(), 1);
    EXPECT_EQ(net.stats().activeCircuits.current(), 0);
}

TEST(Netbase, QuiescenceCountsFailures)
{
    sim::Simulator s;
    LoopNetwork net(s, 4, 10);
    EXPECT_TRUE(net.quiescent());
    const auto id = net.send(0, 1, 1);
    EXPECT_FALSE(net.quiescent());
    net.fail(id);
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(net.stats().failed, 1u);
    s.run();
    EXPECT_TRUE(net.quiescent());
}

TEST(Netbase, DeliveryAndFailureCallbacks)
{
    sim::Simulator s;
    LoopNetwork net(s, 4, 10);
    int delivered = 0;
    int failed = 0;
    net.setDeliveryCallback([&](const Message &) { ++delivered; });
    net.setFailureCallback([&](const Message &) { ++failed; });
    net.send(0, 1, 1);
    const auto doomed = net.send(1, 2, 1);
    net.fail(doomed);
    s.runUntil(4); // before delivery events
    EXPECT_EQ(failed, 1);
    EXPECT_EQ(delivered, 0);
    s.run();
    EXPECT_EQ(failed, 1);
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(net.stats().activeCircuits.current(), 0);
}

TEST(NetbaseDeathTest, Validation)
{
    sim::Simulator s;
    LoopNetwork net(s, 4, 10);
    EXPECT_DEATH(net.send(0, 0, 1), "self");
    EXPECT_DEATH(net.send(0, 4, 1), "range");
    EXPECT_DEATH(net.message(0), "unknown message");
    EXPECT_DEATH(net.message(1), "unknown message");
}

TEST(NetbaseDeathTest, TwoNodeMinimum)
{
    sim::Simulator s;
    EXPECT_DEATH(LoopNetwork(s, 1, 10), "at least two");
}

} // namespace
} // namespace net
} // namespace rmb
