/**
 * @file
 * Unit tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

namespace rmb {
namespace sim {
namespace {

TEST(EventQueue, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.nextTick(), kMaxTick);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&, i] { order.push_back(i); });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, RunOneReturnsFiringTick)
{
    EventQueue q;
    q.schedule(42, [] {});
    EXPECT_EQ(q.nextTick(), 42u);
    EXPECT_EQ(q.runOne(), 42u);
    EXPECT_TRUE(q.empty());
}

/** Counts the copies made of it; moves are free. */
struct CopyCounter
{
    int *copies;
    explicit CopyCounter(int *c) : copies(c) {}
    CopyCounter(const CopyCounter &o) : copies(o.copies) { ++*copies; }
    CopyCounter(CopyCounter &&) = default;
    void operator()() const {}
};

TEST(EventQueue, RunOneMovesTheCallback)
{
    EventQueue q;
    int copies = 0;
    q.schedule(7, CopyCounter(&copies));
    q.schedule(3, CopyCounter(&copies));
    const int scheduled = copies;
    q.runOne();
    q.runOne();
    EXPECT_EQ(copies, scheduled);
    EXPECT_EQ(q.numExecuted(), 2u);
}

TEST(EventQueue, CallbackCanScheduleMoreEvents)
{
    EventQueue q;
    int count = 0;
    std::function<void()> reschedule = [&] {
        if (++count < 5)
            q.schedule(static_cast<Tick>(count * 10), reschedule);
    };
    q.schedule(0, reschedule);
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(count, 5);
}

TEST(EventQueue, NumExecutedCounts)
{
    EventQueue q;
    for (int i = 0; i < 4; ++i)
        q.schedule(i, [] {});
    EXPECT_EQ(q.size(), 4u);
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(q.numExecuted(), 4u);
}

TEST(EventQueueDeathTest, RunOneOnEmptyPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.runOne(), "empty event queue");
}

TEST(EventQueueDeathTest, NullCallbackPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.schedule(1, EventQueue::Callback{}),
                 "null callback");
}

TEST(EventQueue, ManyEventsStressOrder)
{
    EventQueue q;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 1000; ++i) {
        const Tick when = static_cast<Tick>((i * 7919) % 257);
        q.schedule(when, [] {});
    }
    while (!q.empty()) {
        const Tick t = q.runOne();
        if (t < last)
            monotonic = false;
        last = t;
    }
    EXPECT_TRUE(monotonic);
}

} // namespace
} // namespace sim
} // namespace rmb
