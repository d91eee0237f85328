/**
 * @file
 * Unit tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

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

constexpr Tick kSpan = EventQueue::kSpan;

TEST(EventQueue, HeapTierEventFiresBeforeWheelEventOfSameTick)
{
    // Tick 2 * kSpan is beyond the wheel when the first two are
    // scheduled, so they wait in the heap; the third is scheduled
    // from tick kSpan + 10, when 2 * kSpan is within the wheel.
    EventQueue q;
    std::vector<int> order;
    const Tick t = 2 * kSpan;
    q.schedule(t, [&] { order.push_back(1); });
    q.schedule(t, [&] { order.push_back(2); });
    q.schedule(kSpan + 10, [&] {
        order.push_back(0);
        q.schedule(t, [&] { order.push_back(3); });
    });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, OrderHoldsAcrossManyWheelWraps)
{
    // A chain of self-rescheduling events whose delays straddle the
    // span, plus a second event on every tick the chain visits: each
    // pair must fire chain first (it was scheduled first).
    EventQueue q;
    std::vector<std::pair<Tick, int>> fired;
    const Tick delays[] = {1, kSpan - 1, kSpan, kSpan + 1, 3 * kSpan};
    int left = 5000;
    std::function<void(Tick)> chain = [&](Tick at) {
        fired.emplace_back(at, 0);
        if (--left == 0)
            return;
        const Tick next = at + delays[left % 5];
        q.schedule(next, [&chain, next] { chain(next); });
        q.schedule(next, [&fired, next] { fired.emplace_back(next, 1); });
    };
    q.schedule(0, [&] { chain(0); });
    while (!q.empty()) {
        const Tick at = q.runOne();
        ASSERT_EQ(at, fired.back().first);
    }
    ASSERT_EQ(fired.size(), 2u * 5000 - 1);
    for (std::size_t i = 1; i + 1 < fired.size(); i += 2) {
        EXPECT_EQ(fired[i].second, 0);
        EXPECT_EQ(fired[i + 1].first, fired[i].first);
        EXPECT_EQ(fired[i + 1].second, 1);
    }
    EXPECT_GT(fired.back().first, 1000 * kSpan);
}

TEST(EventQueue, OrderHoldsAtTheEndOfTime)
{
    EventQueue q;
    std::vector<int> order;
    const Tick last = kMaxTick - 1;
    q.schedule(last, [&] { order.push_back(2); });
    q.schedule(last - 70, [&] {
        order.push_back(0);
        q.schedule(last, [&] { order.push_back(3); });
        q.schedule(last - 10, [&] {
            order.push_back(1);
            q.schedule(last, [&] { order.push_back(4); });
        });
    });
    EXPECT_EQ(q.nextTick(), last - 70);
    EXPECT_EQ(q.runOne(), last - 70);
    EXPECT_EQ(q.nextTick(), last - 10);
    EXPECT_EQ(q.runOne(), last - 10);
    EXPECT_EQ(q.size(), 3u);
    while (!q.empty())
        EXPECT_EQ(q.runOne(), last);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(q.nextTick(), kMaxTick);
}

TEST(EventQueue, SizeAndNextTickSpanBothTiers)
{
    EventQueue q;
    q.schedule(1000, [] {});
    EXPECT_EQ(q.nextTick(), 1000u);
    q.schedule(200, [] {});
    q.schedule(5, [] {});
    q.schedule(5, [] {});
    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(q.nextTick(), 5u);
    EXPECT_EQ(q.runOne(), 5u);
    EXPECT_EQ(q.nextTick(), 5u);
    EXPECT_EQ(q.runOne(), 5u);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.nextTick(), 200u);
    EXPECT_EQ(q.runOne(), 200u);
    EXPECT_EQ(q.nextTick(), 1000u);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.runOne(), 1000u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTick(), kMaxTick);
}

TEST(EventQueueDeathTest, ScheduleBeforeLastFiredTickPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.runOne();
    EXPECT_DEATH(q.schedule(9, [] {}), "before the last event run");
}

TEST(EventQueue, MatchesSortedReferenceUnderRandomSchedules)
{
    // Differential check against a reference ordered by (when, seq):
    // random schedules from outside and from callbacks, delays
    // 0..4 * span, so events cross between the tiers all the time.
    EventQueue q;
    Random rng(20260419);
    std::set<std::pair<Tick, std::uint64_t>> ref;
    std::uint64_t nextId = 0;
    std::uint64_t firedId = 0;
    Tick now = 0;
    std::function<void(Tick)> add = [&](Tick when) {
        const std::uint64_t id = nextId++;
        ref.emplace(when, id);
        q.schedule(when, [&, id, when] {
            firedId = id;
            for (std::uint64_t c = rng.uniformInt(3); c > 0; --c)
                add(when + rng.uniformInt(4 * kSpan + 1));
        });
    };
    std::uint64_t ops = 0;
    for (; ops < 200000; ++ops) {
        ASSERT_EQ(q.size(), ref.size());
        ASSERT_EQ(q.nextTick(),
                  ref.empty() ? kMaxTick : ref.begin()->first);
        if (ref.empty() || rng.uniformInt(3) == 0) {
            add(now + rng.uniformInt(4 * kSpan + 1));
            continue;
        }
        const auto expect = *ref.begin();
        ref.erase(ref.begin());
        now = q.runOne();
        ASSERT_EQ(now, expect.first);
        ASSERT_EQ(firedId, expect.second);
    }
    EXPECT_GT(q.numExecuted(), 100000u);
}

} // namespace
} // namespace sim
} // namespace rmb
