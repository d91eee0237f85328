/**
 * @file
 * Tests for the physical segment grid (SegmentPlanes).
 */

#include <gtest/gtest.h>

#include "rmb/segment_planes.hh"

namespace rmb {
namespace core {
namespace {

TEST(SegmentPlanes, StartsAllFree)
{
    SegmentPlanes t(8, 4);
    EXPECT_EQ(t.numGaps(), 8u);
    EXPECT_EQ(t.numLevels(), 4u);
    EXPECT_EQ(t.occupiedCount(), 0u);
    for (GapId g = 0; g < 8; ++g) {
        for (Level l = 0; l < 4; ++l) {
            EXPECT_TRUE(t.isFree(g, l));
            EXPECT_EQ(t.owner(g, l), kNoKey);
        }
    }
}

TEST(SegmentPlanes, OccupyAndRelease)
{
    SegmentPlanes t(4, 3);
    t.occupy(1, 2, 7, 10);
    EXPECT_FALSE(t.isFree(1, 2));
    EXPECT_TRUE(t.occupied(1, 2));
    EXPECT_EQ(t.owner(1, 2), 7u);
    EXPECT_EQ(t.occupiedCount(), 1u);
    EXPECT_EQ(t.occupiedAt(2), 1u);
    t.release(1, 2, 7, 20);
    EXPECT_TRUE(t.isFree(1, 2));
    EXPECT_EQ(t.owner(1, 2), kNoKey);
    EXPECT_EQ(t.occupiedCount(), 0u);
    EXPECT_EQ(t.occupiedAt(2), 0u);
}

TEST(SegmentPlanes, GapsAreIndependent)
{
    SegmentPlanes t(4, 2);
    t.occupy(2, 1, 5, 0);
    EXPECT_TRUE(t.isFree(1, 1));
    EXPECT_TRUE(t.isFree(3, 1));
    EXPECT_FALSE(t.isFree(2, 1));
}

/** Owners are 64-bit keys: an event-engine bus id past 2^32 is kept
 *  whole. */
TEST(SegmentPlanes, OwnerKeepsAWideKey)
{
    SegmentPlanes t(4, 2);
    const BusKey wide = (BusKey{1} << 40) + 3;
    t.occupy(3, 0, wide, 0);
    EXPECT_EQ(t.owner(3, 0), wide);
    t.release(3, 0, wide, 1);
    EXPECT_TRUE(t.isFree(3, 0));
}

TEST(SegmentPlanes, UtilizationTracksBusyWindows)
{
    SegmentPlanes t(2, 2);
    t.occupy(0, 0, 1, 0);
    t.release(0, 0, 1, 50);
    EXPECT_DOUBLE_EQ(t.utilization(0, 0, 100), 0.5);
    EXPECT_DOUBLE_EQ(t.utilization(0, 1, 100), 0.0);
    // 1 of 4 segments busy half the time.
    EXPECT_DOUBLE_EQ(t.averageUtilization(100), 0.125);
}

TEST(SegmentPlanes, UtilizationOfOpenOccupancy)
{
    SegmentPlanes t(2, 1);
    t.occupy(1, 0, 9, 20);
    EXPECT_DOUBLE_EQ(t.utilization(1, 0, 100), 0.8);
}

/** One cell at a time, on each level: occupy at 8, fault while held
 *  at 16, release while faulted at 24 (still busy), repair at 40
 *  (busy 8..40), fault while free at 64, repair at 80 (busy
 *  64..80). */
TEST(SegmentPlanes, FaultedCellStaysBusyAcrossRelease)
{
    for (Level l : {0, 1}) {
        SCOPED_TRACE(l);
        SegmentPlanes t(2, 2);
        t.occupy(1, l, 3, 8);
        t.markFaulty(1, l, 16);
        EXPECT_TRUE(t.occupied(1, l));
        EXPECT_TRUE(t.faulted(1, l));
        EXPECT_EQ(t.faultyCount(), 1u);
        t.release(1, l, 3, 24);
        EXPECT_FALSE(t.occupied(1, l));
        EXPECT_FALSE(t.isFree(1, l));
        EXPECT_EQ(t.utilization(1, l, 32), 0.75);
        EXPECT_EQ(t.averageUtilization(32), 0.1875);
        t.clearFault(1, l, 40);
        EXPECT_EQ(t.utilization(1, l, 64), 0.5);
        t.markFaulty(1, l, 64);
        EXPECT_EQ(t.utilization(1, l, 80), 0.6);
        t.clearFault(1, l, 80);
        EXPECT_TRUE(t.isFree(1, l));
        EXPECT_EQ(t.faultyCount(), 0u);
        EXPECT_EQ(t.utilization(1, l, 128), 0.375);
        EXPECT_EQ(t.utilization(0, l, 128), 0.0);
        EXPECT_EQ(t.averageUtilization(128), 0.09375);
    }
}

/** A pin marks a held cell of a tearing-down bus; release clears it,
 *  and neither the pin nor the release hides a change from the
 *  epoch the kernel's make-skip compares. */
TEST(SegmentPlanes, ReleaseUnpinsAndEveryMutationBumpsTheEpoch)
{
    SegmentPlanes t(4, 2);
    const std::uint64_t e0 = t.epoch();
    t.occupy(2, 1, 4, 0);
    EXPECT_GT(t.epoch(), e0);
    const std::uint64_t e1 = t.epoch();
    t.pin(2, 1);
    EXPECT_TRUE(t.pinned(2, 1));
    EXPECT_EQ(t.epoch(), e1);
    t.release(2, 1, 4, 5);
    EXPECT_FALSE(t.pinned(2, 1));
    EXPECT_GT(t.epoch(), e1);
    const std::uint64_t e2 = t.epoch();
    t.markFaulty(0, 0, 6);
    EXPECT_GT(t.epoch(), e2);
}

TEST(SegmentPlanesDeathTest, DoubleOccupyPanics)
{
    SegmentPlanes t(4, 2);
    t.occupy(0, 0, 1, 0);
    EXPECT_DEATH(t.occupy(0, 0, 2, 1), "already held");
}

TEST(SegmentPlanesDeathTest, OccupyFaultedPanics)
{
    SegmentPlanes t(4, 2);
    t.markFaulty(1, 1, 0);
    EXPECT_DEATH(t.occupy(1, 1, 2, 1), "is faulted");
}

TEST(SegmentPlanesDeathTest, ReleaseByWrongOwnerPanics)
{
    SegmentPlanes t(4, 2);
    t.occupy(0, 0, 1, 0);
    EXPECT_DEATH(t.release(0, 0, 2, 1), "not by releasing bus");
}

TEST(SegmentPlanesDeathTest, ReleaseFreePanics)
{
    SegmentPlanes t(4, 2);
    EXPECT_DEATH(t.release(0, 0, 1, 0), "");
}

TEST(SegmentPlanesDeathTest, OutOfRangePanics)
{
    SegmentPlanes t(4, 2);
    EXPECT_DEATH(t.owner(4, 0), "gap");
    EXPECT_DEATH(t.owner(0, 2), "level");
    EXPECT_DEATH(t.owner(0, -1), "level");
    EXPECT_DEATH(t.utilization(0, 2, 1), "level");
}

TEST(SegmentPlanesDeathTest, OccupyByNoKeyPanics)
{
    SegmentPlanes t(4, 2);
    EXPECT_DEATH(t.occupy(0, 0, kNoKey, 0), "kNoKey");
}

} // namespace
} // namespace core
} // namespace rmb
