/**
 * @file
 * Structure-of-arrays segment state for the cycle kernel.
 *
 * The event engine's SegmentTable is an array-of-cells keyed by
 * (gap, level).  The kernel instead keeps one *bitplane* per level:
 * a row of ceil(N/64) uint64_t words in which bit g is gap g's
 * segment.  Occupancy, fault and pin state are separate plane sets,
 * so per-cycle compaction candidate filtering collapses to a handful
 * of word-parallel AND/OR/NOT ops per level:
 *
 *   candidates(l) = occ(l) & parity(l, c) & ~pinned(l)
 *                   & ~(occ(l-1) | faulty(l-1))
 *
 * A *pinned* cell is held by a bus that is tearing down: the engine
 * pins every cell of a bus (both levels of a mid-move hop) when its
 * teardown starts, and release() unpins.  Figure 7 never moves a hop
 * of a tearing-down bus, and under a closed loop those cells are most
 * of the occupied grid, so filtering them here spares the per-bit
 * owner and hop lookups that would reject them one by one.  The
 * other Figure-7 clauses (a neighbour hop one level up or mid-move,
 * an advancing head) reject only a few percent of the survivors, so
 * they stay per-bit checks in hopMovableRule rather than more planes
 * that every hop change would have to keep in sync.
 *
 * Ownership (which bus holds a claimed segment) cannot be a bitplane
 * - it is a dense level-major array of pool-slot indices consulted
 * only for the bits that survive the filter.  Busy tracking for
 * utilization reports rides along per cell with SegmentTable's
 * semantics (a cell is busy while occupied or faulted): the planes
 * hold that state, and each cell's BusyTracker keeps only the time
 * of its last busy edge and the ticks accumulated before it.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "rmb/types.hh"
#include "sim/stats.hh"

namespace rmb {
namespace core {
namespace kernel {

/** Slot sentinel: "no bus holds this segment". */
constexpr std::uint32_t kNoSlot = 0xffffffffu;

/**
 * The N x k segment grid as level-major bitplanes plus an owner
 * array.  All mutators take the current tick for busy tracking.
 */
class SegmentPlanes
{
  public:
    SegmentPlanes(std::uint32_t num_gaps, std::uint32_t num_levels)
        : numGaps_(num_gaps), numLevels_(num_levels),
          words_((num_gaps + 63) / 64),
          occ_(static_cast<std::size_t>(num_levels) * words_, 0),
          faulty_(static_cast<std::size_t>(num_levels) * words_, 0),
          pinned_(static_cast<std::size_t>(num_levels) * words_, 0),
          levelOccupied_(num_levels, 0),
          owner_(static_cast<std::size_t>(num_levels) * num_gaps,
                 kNoSlot),
          busy_(static_cast<std::size_t>(num_levels) * num_gaps),
          evenGaps_(words_, 0), oddGaps_(words_, 0)
    {
        rmb_assert(num_gaps >= 2 && num_levels >= 1,
                   "segment planes need >= 2 gaps and >= 1 level");
        for (std::uint32_t g = 0; g < num_gaps; ++g) {
            auto &mask = (g % 2 == 0) ? evenGaps_ : oddGaps_;
            mask[g / 64] |= std::uint64_t{1} << (g % 64);
        }
    }

    std::uint32_t numGaps() const { return numGaps_; }
    std::uint32_t numLevels() const { return numLevels_; }
    std::uint32_t wordsPerLevel() const { return words_; }

    /** Level @p l's row of wordsPerLevel() occupancy words. */
    const std::uint64_t *
    occRow(Level l) const
    {
        return &occ_[planeIndex(l, 0)];
    }

    /** Level @p l's row of fault words. */
    const std::uint64_t *
    faultyRow(Level l) const
    {
        return &faulty_[planeIndex(l, 0)];
    }

    /** Level @p l's row of pin words. */
    const std::uint64_t *
    pinnedRow(Level l) const
    {
        return &pinned_[planeIndex(l, 0)];
    }

    /** The row of gaps with parity @p parity. */
    const std::uint64_t *
    parityRow(int parity) const
    {
        return parity == 0 ? evenGaps_.data() : oddGaps_.data();
    }

    bool
    occupied(GapId gap, Level level) const
    {
        return testBit(occ_, gap, level);
    }

    bool
    faulted(GapId gap, Level level) const
    {
        return testBit(faulty_, gap, level);
    }

    /** Held by a tearing-down bus (see the file comment). */
    bool
    pinned(GapId gap, Level level) const
    {
        return testBit(pinned_, gap, level);
    }

    /** Claimable: neither occupied nor faulted (SegmentTable's
     *  isFree). */
    bool
    isFree(GapId gap, Level level) const
    {
        const std::size_t w = planeIndex(level, gap / 64);
        return (((occ_[w] | faulty_[w]) >> (gap % 64)) & 1) == 0;
    }

    /** Pool slot holding (gap, level); kNoSlot when unclaimed. */
    std::uint32_t
    ownerSlot(GapId gap, Level level) const
    {
        return owner_[cellIndex(gap, level)];
    }

    std::uint64_t occupiedCount() const { return occupied_; }

    /** Cells held at level @p l (a make pass skips an empty
     *  level's row). */
    std::uint32_t
    occupiedAt(Level l) const
    {
        return levelOccupied_[static_cast<std::size_t>(l)];
    }

    std::uint32_t faultyCount() const { return faulty_n_; }

    /**
     * Monotonic change counter: bumped by every occupancy or fault
     * mutation (and by bumpEpoch() for the rare movability-relevant
     * transitions that live outside the planes).  Lets the cycle
     * kernel prove "the grid is exactly as it was when this parity's
     * make pass found nothing to move" and skip the rescan.
     */
    std::uint64_t epoch() const { return epoch_; }
    void bumpEpoch() { ++epoch_; }

    void
    occupy(GapId gap, Level level, std::uint32_t slot, sim::Tick now)
    {
        rmb_assert(slot != kNoSlot, "occupy by the slot sentinel");
        const std::size_t cell = cellIndex(gap, level);
        const std::size_t w = planeIndex(level, gap / 64);
        rmb_assert(owner_[cell] == kNoSlot, "segment (", gap, ",",
                   level, ") already held by slot ", owner_[cell]);
        rmb_assert((faulty_[w] & bit(gap)) == 0, "segment (", gap,
                   ",", level, ") is faulted; slot ", slot,
                   " tried to claim it");
        owner_[cell] = slot;
        occ_[w] |= bit(gap);
        ++occupied_;
        ++levelOccupied_[static_cast<std::size_t>(level)];
        ++epoch_;
        busy_[cell].setBusy(now);
    }

    void
    release(GapId gap, Level level, std::uint32_t slot,
            sim::Tick now)
    {
        const std::size_t cell = cellIndex(gap, level);
        rmb_assert(owner_[cell] == slot, "segment (", gap, ",",
                   level, ") held by slot ", owner_[cell],
                   ", not by releasing slot ", slot);
        owner_[cell] = kNoSlot;
        const std::size_t w = planeIndex(level, gap / 64);
        occ_[w] &= ~bit(gap);
        pinned_[w] &= ~bit(gap);
        --occupied_;
        --levelOccupied_[static_cast<std::size_t>(level)];
        ++epoch_;
        if ((faulty_[w] & bit(gap)) == 0)
            busy_[cell].setFree(now);
    }

    /** Pin held cell (gap, level): its bus started tearing down.
     *  Not an epoch change - a pin only takes moves away. */
    void
    pin(GapId gap, Level level)
    {
        rmb_assert(owner_[cellIndex(gap, level)] != kNoSlot,
                   "pin of unheld segment (", gap, ",", level, ")");
        pinned_[planeIndex(level, gap / 64)] |= bit(gap);
    }

    void
    markFaulty(GapId gap, Level level, sim::Tick now)
    {
        rmb_assert(!faulted(gap, level), "segment (", gap, ",",
                   level, ") is already faulted");
        faulty_[planeIndex(level, gap / 64)] |= bit(gap);
        ++faulty_n_;
        ++epoch_;
        if (owner_[cellIndex(gap, level)] == kNoSlot)
            busy_[cellIndex(gap, level)].setBusy(now);
    }

    void
    clearFault(GapId gap, Level level, sim::Tick now)
    {
        rmb_assert(faulted(gap, level), "segment (", gap, ",",
                   level, ") is not faulted");
        faulty_[planeIndex(level, gap / 64)] &= ~bit(gap);
        --faulty_n_;
        ++epoch_;
        if (owner_[cellIndex(gap, level)] == kNoSlot)
            busy_[cellIndex(gap, level)].setFree(now);
    }

    double
    utilization(GapId gap, Level level, sim::Tick now) const
    {
        return busy_[cellIndex(gap, level)].utilization(
            now, !isFree(gap, level));
    }

    double
    averageUtilization(sim::Tick now) const
    {
        if (busy_.empty() || now == 0)
            return 0.0;
        // Cell-index (level-major) order, the order of busy_.
        double sum = 0.0;
        for (Level l = 0; static_cast<std::uint32_t>(l) < numLevels_;
             ++l)
            for (GapId g = 0; g < numGaps_; ++g)
                sum += utilization(g, l, now);
        return sum / static_cast<double>(busy_.size());
    }

  private:
    static std::uint64_t
    bit(GapId gap)
    {
        return std::uint64_t{1} << (gap % 64);
    }

    bool
    testBit(const std::vector<std::uint64_t> &plane, GapId gap,
            Level level) const
    {
        return (plane[planeIndex(level, gap / 64)] >> (gap % 64)) & 1;
    }

    std::size_t
    planeIndex(Level level, std::uint32_t w) const
    {
        rmb_assert(level >= 0 && static_cast<std::uint32_t>(level) <
                       numLevels_,
                   "level ", level, " out of range");
        return static_cast<std::size_t>(level) * words_ + w;
    }

    std::size_t
    cellIndex(GapId gap, Level level) const
    {
        rmb_assert(gap < numGaps_, "gap ", gap, " out of range");
        return static_cast<std::size_t>(level) * numGaps_ + gap;
    }

    std::uint32_t numGaps_;
    std::uint32_t numLevels_;
    std::uint32_t words_;
    std::vector<std::uint64_t> occ_;
    std::vector<std::uint64_t> faulty_;
    std::vector<std::uint64_t> pinned_;
    std::vector<std::uint32_t> levelOccupied_;
    std::vector<std::uint32_t> owner_;
    std::vector<sim::BusyTracker> busy_;
    std::vector<std::uint64_t> evenGaps_;
    std::vector<std::uint64_t> oddGaps_;
    std::uint64_t occupied_ = 0;
    std::uint64_t epoch_ = 0;
    std::uint32_t faulty_n_ = 0;
};

} // namespace kernel
} // namespace core
} // namespace rmb
