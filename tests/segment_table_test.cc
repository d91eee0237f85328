/**
 * @file
 * Tests for the physical segment occupancy table.
 */

#include <gtest/gtest.h>

#include "rmb/segment_table.hh"

namespace rmb {
namespace core {
namespace {

TEST(SegmentTable, StartsAllFree)
{
    SegmentTable t(8, 4);
    EXPECT_EQ(t.numGaps(), 8u);
    EXPECT_EQ(t.numLevels(), 4u);
    EXPECT_EQ(t.occupiedCount(), 0u);
    for (GapId g = 0; g < 8; ++g) {
        EXPECT_EQ(t.freeLevels(g), 4u);
        EXPECT_EQ(t.lowestFree(g), 0);
        for (Level l = 0; l < 4; ++l)
            EXPECT_TRUE(t.isFree(g, l));
    }
}

TEST(SegmentTable, OccupyAndRelease)
{
    SegmentTable t(4, 3);
    t.occupy(1, 2, 7, 10);
    EXPECT_FALSE(t.isFree(1, 2));
    EXPECT_EQ(t.occupant(1, 2), 7u);
    EXPECT_EQ(t.occupiedCount(), 1u);
    EXPECT_EQ(t.freeLevels(1), 2u);
    t.release(1, 2, 7, 20);
    EXPECT_TRUE(t.isFree(1, 2));
    EXPECT_EQ(t.occupiedCount(), 0u);
}

TEST(SegmentTable, LowestFreeSkipsOccupied)
{
    SegmentTable t(4, 3);
    t.occupy(0, 0, 1, 0);
    EXPECT_EQ(t.lowestFree(0), 1);
    t.occupy(0, 1, 2, 0);
    EXPECT_EQ(t.lowestFree(0), 2);
    t.occupy(0, 2, 3, 0);
    EXPECT_EQ(t.lowestFree(0), kNoLevel);
    EXPECT_EQ(t.freeLevels(0), 0u);
}

TEST(SegmentTable, GapsAreIndependent)
{
    SegmentTable t(4, 2);
    t.occupy(2, 1, 5, 0);
    EXPECT_TRUE(t.isFree(1, 1));
    EXPECT_TRUE(t.isFree(3, 1));
    EXPECT_FALSE(t.isFree(2, 1));
}

TEST(SegmentTable, UtilizationTracksBusyWindows)
{
    SegmentTable t(2, 2);
    t.occupy(0, 0, 1, 0);
    t.release(0, 0, 1, 50);
    EXPECT_DOUBLE_EQ(t.utilization(0, 0, 100), 0.5);
    EXPECT_DOUBLE_EQ(t.utilization(0, 1, 100), 0.0);
    // 1 of 4 segments busy half the time.
    EXPECT_DOUBLE_EQ(t.averageUtilization(100), 0.125);
}

TEST(SegmentTable, UtilizationOfOpenOccupancy)
{
    SegmentTable t(2, 1);
    t.occupy(1, 0, 9, 20);
    EXPECT_DOUBLE_EQ(t.utilization(1, 0, 100), 0.8);
}

TEST(SegmentTable, FaultedCellStaysBusyAcrossRelease)
{
    // One cell: occupy at 8, fault while held at 16, release while
    // faulted at 24 (still busy), repair at 40 (busy 8..40), fault
    // while free at 64, repair at 80 (busy 64..80).
    SegmentTable t(2, 2);
    t.occupy(1, 0, 3, 8);
    t.markFaulty(1, 0, 16);
    t.release(1, 0, 3, 24);
    EXPECT_EQ(t.utilization(1, 0, 32), 0.75);
    EXPECT_EQ(t.averageUtilization(32), 0.1875);
    t.clearFault(1, 0, 40);
    EXPECT_EQ(t.utilization(1, 0, 64), 0.5);
    t.markFaulty(1, 0, 64);
    EXPECT_EQ(t.utilization(1, 0, 80), 0.6);
    t.clearFault(1, 0, 80);
    EXPECT_TRUE(t.isFree(1, 0));
    EXPECT_EQ(t.utilization(1, 0, 128), 0.375);
    EXPECT_EQ(t.utilization(0, 0, 128), 0.0);
    EXPECT_EQ(t.averageUtilization(128), 0.09375);
}

TEST(SegmentTableDeathTest, DoubleOccupyPanics)
{
    SegmentTable t(4, 2);
    t.occupy(0, 0, 1, 0);
    EXPECT_DEATH(t.occupy(0, 0, 2, 1), "already held");
}

TEST(SegmentTableDeathTest, ReleaseByWrongOwnerPanics)
{
    SegmentTable t(4, 2);
    t.occupy(0, 0, 1, 0);
    EXPECT_DEATH(t.release(0, 0, 2, 1), "not by releasing bus");
}

TEST(SegmentTableDeathTest, ReleaseFreePanics)
{
    SegmentTable t(4, 2);
    EXPECT_DEATH(t.release(0, 0, 1, 0), "");
}

TEST(SegmentTableDeathTest, OutOfRangePanics)
{
    SegmentTable t(4, 2);
    EXPECT_DEATH(t.occupant(4, 0), "gap");
    EXPECT_DEATH(t.occupant(0, 2), "level");
    EXPECT_DEATH(t.occupant(0, -1), "level");
}

TEST(SegmentTableDeathTest, OccupyByNoBusPanics)
{
    SegmentTable t(4, 2);
    EXPECT_DEATH(t.occupy(0, 0, kNoBus, 0), "kNoBus");
}

} // namespace
} // namespace core
} // namespace rmb
