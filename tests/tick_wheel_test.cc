/**
 * @file
 * Unit tests for the pooled tick wheel shared by the event queue and
 * the cycle kernel's agenda.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.hh"
#include "sim/tick_wheel.hh"

namespace rmb {
namespace sim {
namespace {

using Wheel = TickWheel<int>;
constexpr Tick kNone = Wheel::kNone;

std::vector<int>
drain(Wheel &w, Tick t)
{
    std::vector<int> out;
    while (w.has(t))
        out.push_back(w.pop(t));
    return out;
}

TEST(TickWheel, StartsEmpty)
{
    Wheel w(64);
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.size(), 0u);
    EXPECT_EQ(w.span(), 64u);
    EXPECT_FALSE(w.has(0));
    EXPECT_EQ(w.first(0, 63), kNone);
}

TEST(TickWheel, FifoWithinATick)
{
    Wheel w(64);
    for (int i = 0; i < 8; ++i)
        w.push(5, i);
    w.push(6, 100);
    EXPECT_EQ(drain(w, 5), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(drain(w, 6), (std::vector<int>{100}));
}

TEST(TickWheel, PushesIntoTheTickBeingDrainedRunLast)
{
    Wheel w(64);
    w.push(9, 0);
    w.push(9, 1);
    std::vector<int> order;
    int extra = 10;
    while (w.has(9)) {
        const int v = w.pop(9);
        order.push_back(v);
        if (v < 2)
            w.push(9, extra++);
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11}));
    EXPECT_TRUE(w.empty());
}

TEST(TickWheel, SlotsAreReusedInFifoOrder)
{
    // Popped slots go back to the free list; lists built from reused
    // slots keep their push order.
    Wheel w(64);
    for (int round = 0; round < 5; ++round) {
        const Tick t = static_cast<Tick>(round * 17);
        for (int i = 0; i < 6; ++i)
            w.push(t + static_cast<Tick>(i % 2), 10 * round + i);
        EXPECT_EQ(drain(w, t),
                  (std::vector<int>{10 * round, 10 * round + 2,
                                    10 * round + 4}));
        EXPECT_EQ(drain(w, t + 1),
                  (std::vector<int>{10 * round + 1, 10 * round + 3,
                                    10 * round + 5}));
    }
}

TEST(TickWheel, SizeCountsPushesAndPops)
{
    Wheel w(1024);
    std::uint64_t n = 0;
    for (Tick t = 0; t < 1024; t += 3) {
        w.push(t, 1);
        w.push(t, 2);
        n += 2;
        EXPECT_EQ(w.size(), n);
    }
    for (Tick t = 0; t < 1024; t += 3) {
        w.pop(t);
        --n;
        EXPECT_EQ(w.size(), n);
        EXPECT_TRUE(w.has(t));
        w.pop(t);
        --n;
        EXPECT_EQ(w.size(), n);
        EXPECT_FALSE(w.has(t));
    }
    EXPECT_TRUE(w.empty());
}

/** first() on one occupied tick, from a set of starts and bounds. */
void
checkSingle(Tick span, Tick hit)
{
    SCOPED_TRACE("span " + std::to_string(span) + " hit " +
                 std::to_string(hit));
    Wheel w(span);
    w.push(hit, 1);
    // From the tick itself, from each side of word boundaries, and
    // from a full span behind the hit (hit - span + 1 is the earliest
    // start that still sees it).
    const Tick starts[] = {hit,      hit - 1,  hit - 63, hit - 64,
                           hit - 65, hit - 127, hit - 128,
                           hit - (span - 1)};
    for (Tick from : starts) {
        if (from > hit || hit - from >= span)
            continue;
        EXPECT_EQ(w.first(from, hit), hit) << "from " << from;
        EXPECT_EQ(w.first(from, kMaxTick), hit) << "from " << from;
        EXPECT_EQ(w.first(from, hit + 5), hit) << "from " << from;
        if (hit > from) {
            EXPECT_EQ(w.first(from, hit - 1), kNone) << "from " << from;
        }
    }
    EXPECT_EQ(w.first(hit + 1, hit + span - 1), kNone);
    if (hit > 0) {
        EXPECT_EQ(w.first(hit, hit - 1), kNone);
    }
}

TEST(TickWheel, FirstAcrossWordsWrapsAndBounds)
{
    for (Tick span : {Tick{64}, Tick{1024}, Tick{65536}}) {
        // Ticks at word edges, mid-word, at the wheel's last slot,
        // and past one and many wraps of the wheel.
        const Tick hits[] = {0,        1,           63,
                             64,       65,          127,
                             span - 1, span,        span + 63,
                             2 * span - 1, 7 * span + 100, 123456789};
        for (Tick hit : hits)
            checkSingle(span, hit);
    }
}

TEST(TickWheel, FirstLooksExactlyOneSpanAhead)
{
    // The wheel stores no ticks: tick 10 + 64 shares tick 10's list,
    // so a query from 11 reads that list as tick 74, its only tick in
    // [11, 74].  Callers keep pending ticks within a span of the
    // query's start.
    Wheel w(64);
    w.push(10, 1);
    EXPECT_EQ(w.first(10, 200), 10u);
    EXPECT_EQ(w.first(11, 200), 74u);
    EXPECT_EQ(w.first(11, 73), kNone);
}

TEST(TickWheel, FirstPicksTheEarliestOfMany)
{
    Wheel w(1024);
    // Around a wrap: 1000..1023 sit at the end of the lists, 1024..
    // at the start.
    for (Tick t : {Tick{1030}, Tick{1500}, Tick{1010}, Tick{1200}})
        w.push(t, 0);
    EXPECT_EQ(w.first(1000, 2000), 1010u);
    EXPECT_EQ(w.first(1011, 2000), 1030u);
    EXPECT_EQ(w.first(1031, 2000), 1200u);
    EXPECT_EQ(w.first(1031, 1199), kNone);
    EXPECT_EQ(w.first(1201, 2023), 1500u);
}

TEST(TickWheel, FirstAtTheEndOfTime)
{
    Wheel w(64);
    const Tick last = kMaxTick - 1;
    w.push(last, 1);
    EXPECT_EQ(w.first(last - 60, kMaxTick), last);
    EXPECT_EQ(w.first(last - 1, last - 1), kNone);
    EXPECT_EQ(w.first(last, kMaxTick), last);
}

TEST(TickWheelDeathTest, SpanMustBeAPowerOfTwoOfAWordOrMore)
{
    EXPECT_DEATH(Wheel w(32), "not a power of two");
    EXPECT_DEATH(Wheel w(96), "not a power of two");
}

/**
 * Differential check against a reference ordered by (tick, push
 * order): random pushes within a span of the clock, pushes into the
 * tick being drained, and bounded first() queries.
 */
void
runDifferential(Tick span, std::uint64_t seed)
{
    SCOPED_TRACE("span " + std::to_string(span));
    Wheel w(span);
    Random rng(seed);
    std::set<std::pair<Tick, int>> ref;
    int nextId = 0;
    Tick now = 0;
    const auto push = [&](Tick t) {
        ref.emplace(t, nextId);
        w.push(t, nextId++);
    };
    for (int step = 0; step < 20000; ++step) {
        ASSERT_EQ(w.size(), ref.size());
        if (ref.empty() || rng.uniformInt(3) != 0) {
            // Mostly near ticks, so lists grow long, some a span out.
            const Tick d = rng.uniformInt(4) == 0
                               ? rng.uniformInt(span)
                               : rng.uniformInt(span / 16);
            push(now + d);
            continue;
        }
        const Tick bound = now + rng.uniformInt(2 * span);
        const auto lo = ref.lower_bound({now, -1});
        const Tick expect =
            lo == ref.end() || lo->first > bound ? kNone : lo->first;
        ASSERT_EQ(w.first(now, bound), expect);
        // Advance the clock to the earliest tick and drain it.
        now = ref.begin()->first;
        ASSERT_EQ(w.first(now, kMaxTick), now);
        while (w.has(now)) {
            ASSERT_EQ(ref.begin()->first, now);
            ASSERT_EQ(w.pop(now), ref.begin()->second);
            ref.erase(ref.begin());
            if (rng.uniformInt(4) == 0)
                push(now);
        }
        ASSERT_TRUE(ref.empty() || ref.begin()->first > now);
    }
}

TEST(TickWheel, MatchesTickPushOrderReference)
{
    runDifferential(64, 20261020);
    runDifferential(1024, 4242);
    runDifferential(65536, 1);
}

} // namespace
} // namespace sim
} // namespace rmb
