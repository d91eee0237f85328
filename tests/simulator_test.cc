/**
 * @file
 * Unit tests for the Simulator driver.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"

namespace rmb {
namespace sim {
namespace {

TEST(Simulator, TimeStartsAtZero)
{
    Simulator s;
    EXPECT_EQ(s.now(), 0u);
    EXPECT_TRUE(s.idle());
}

TEST(Simulator, ScheduleIsRelative)
{
    Simulator s;
    Tick seen = 0;
    s.schedule(10, [&] { seen = s.now(); });
    s.run();
    EXPECT_EQ(seen, 10u);
    EXPECT_EQ(s.now(), 10u);
}

TEST(Simulator, NestedSchedulingAccumulates)
{
    Simulator s;
    Tick seen = 0;
    s.schedule(10, [&] {
        s.schedule(5, [&] { seen = s.now(); });
    });
    s.run();
    EXPECT_EQ(seen, 15u);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive)
{
    Simulator s;
    int fired = 0;
    s.schedule(10, [&] { ++fired; });
    s.schedule(20, [&] { ++fired; });
    s.schedule(21, [&] { ++fired; });
    EXPECT_EQ(s.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.now(), 20u);
    EXPECT_FALSE(s.idle());
}

TEST(Simulator, RunUntilAdvancesTimeWhenQueueDrains)
{
    Simulator s;
    s.schedule(3, [] {});
    s.runUntil(100);
    EXPECT_EQ(s.now(), 100u);
    EXPECT_TRUE(s.idle());
}

TEST(Simulator, RunForIsRelative)
{
    Simulator s;
    s.runFor(50);
    EXPECT_EQ(s.now(), 50u);
    s.runFor(50);
    EXPECT_EQ(s.now(), 100u);
}

TEST(Simulator, RunWithEventBudget)
{
    Simulator s;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        s.schedule(static_cast<Tick>(i), [&] { ++fired; });
    EXPECT_EQ(s.run(4), 4u);
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(s.run(), 6u);
    EXPECT_EQ(fired, 10);
}

TEST(Simulator, ScheduleAtAbsolute)
{
    Simulator s;
    s.schedule(10, [] {});
    s.run();
    Tick seen = 0;
    s.scheduleAt(25, [&] { seen = s.now(); });
    s.run();
    EXPECT_EQ(seen, 25u);
}

TEST(Simulator, NumExecutedAccumulatesAcrossRuns)
{
    Simulator s;
    s.schedule(1, [] {});
    s.run();
    s.schedule(1, [] {});
    s.run();
    EXPECT_EQ(s.numExecuted(), 2u);
}

TEST(SimulatorDeathTest, ScheduleAtPastPanics)
{
    Simulator s;
    s.schedule(10, [] {});
    s.run();
    EXPECT_DEATH(s.scheduleAt(5, [] {}), "past");
}

TEST(Simulator, ZeroDelaySelfEventRunsThisInstant)
{
    Simulator s;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 3)
            s.schedule(0, chain);
    };
    s.schedule(0, chain);
    s.run();
    EXPECT_EQ(depth, 3);
    EXPECT_EQ(s.now(), 0u);
}

} // namespace
} // namespace sim
} // namespace rmb
