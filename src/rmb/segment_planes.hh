/**
 * @file
 * The N x k grid of physical bus segments (paper section 2: k
 * parallel segments between adjacent INCs), shared by both flat
 * engines through RingEngine.
 *
 * Pure bookkeeping with checked invariants: the protocol decides
 * *what* to claim or free; this class makes double claims and double
 * frees impossible and tracks per-segment utilization.  The grid is
 * one *bitplane* per level: a row of ceil(N/64) uint64_t words in
 * which bit g is gap g's segment.  Occupancy, fault and pin state are
 * separate plane sets, so the cycle kernel's compaction candidate
 * filter collapses to a handful of word-parallel AND/OR/NOT ops per
 * level:
 *
 *   candidates(l) = occ(l) & parity(l, c) & ~pinned(l)
 *                   & ~(occ(l-1) | faulty(l-1))
 *
 * A *pinned* cell is held by a bus that is tearing down: the kernel
 * pins every cell of a bus (both levels of a mid-move hop) when its
 * teardown starts, and release() unpins.  Figure 7 never moves a hop
 * of a tearing-down bus, and under a closed loop those cells are most
 * of the occupied grid, so filtering them here spares the per-bit
 * owner and hop lookups that would reject them one by one.  The
 * other Figure-7 clauses (a neighbour hop one level up or mid-move,
 * an advancing head) reject only a few percent of the survivors, so
 * they stay per-bit checks in hopMovableRule rather than more planes
 * that every hop change would have to keep in sync.  The event engine
 * never pins.
 *
 * Ownership (which bus holds a claimed segment) cannot be a bitplane:
 * it is a dense level-major array of BusKeys, kNoKey when unclaimed.
 * Faults are orthogonal to ownership: a faulted segment keeps its
 * owner while the severed bus is torn down hop by hop, and nobody may
 * claim it until repair.  A segment is busy while it is not free
 * (occupied or faulted); the planes hold that state, and each cell's
 * BusyTracker keeps only the time of its last busy edge and the ticks
 * accumulated before it.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "rmb/types.hh"
#include "sim/stats.hh"

namespace rmb {
namespace core {

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
                 kNoKey),
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

    /** Claimed by a bus (faulted or not). */
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

    /** Claimable: neither occupied nor faulted. */
    bool
    isFree(GapId gap, Level level) const
    {
        const std::size_t w = planeIndex(level, gap / 64);
        return (((occ_[w] | faulty_[w]) >> (gap % 64)) & 1) == 0;
    }

    /** The bus holding (gap, level); kNoKey when unclaimed. */
    BusKey
    owner(GapId gap, Level level) const
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

    /** Claim a free segment for @p key at time @p now. */
    void
    occupy(GapId gap, Level level, BusKey key, sim::Tick now)
    {
        rmb_assert(key != kNoKey, "occupy by the sentinel key");
        const std::size_t cell = cellIndex(gap, level);
        const std::size_t w = planeIndex(level, gap / 64);
        rmb_assert(owner_[cell] == kNoKey, "segment (", gap, ",",
                   level, ") already held by bus ", owner_[cell],
                   "; bus ", key, " tried to claim it");
        rmb_assert((faulty_[w] & bit(gap)) == 0, "segment (", gap,
                   ",", level, ") is faulted; bus ", key,
                   " tried to claim it");
        owner_[cell] = key;
        occ_[w] |= bit(gap);
        ++occupied_;
        ++levelOccupied_[static_cast<std::size_t>(level)];
        ++epoch_;
        busy_[cell].setBusy(now);
    }

    /** Release a segment held by @p key at time @p now; a faulted
     *  segment stays busy until repair. */
    void
    release(GapId gap, Level level, BusKey key, sim::Tick now)
    {
        const std::size_t cell = cellIndex(gap, level);
        rmb_assert(owner_[cell] == key, "segment (", gap, ",", level,
                   ") held by bus ", owner_[cell],
                   ", not by releasing bus ", key);
        owner_[cell] = kNoKey;
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
        rmb_assert(owner_[cellIndex(gap, level)] != kNoKey,
                   "pin of unheld segment (", gap, ",", level, ")");
        pinned_[planeIndex(level, gap / 64)] |= bit(gap);
    }

    /**
     * Disable a segment.  An occupant keeps ownership until the
     * protocol tears it down, but no new bus can claim the segment
     * until clearFault.
     */
    void
    markFaulty(GapId gap, Level level, sim::Tick now)
    {
        rmb_assert(!faulted(gap, level), "segment (", gap, ",",
                   level, ") is already faulted");
        faulty_[planeIndex(level, gap / 64)] |= bit(gap);
        ++faulty_n_;
        ++epoch_;
        // An occupied segment is busy already.
        if (owner_[cellIndex(gap, level)] == kNoKey)
            busy_[cellIndex(gap, level)].setBusy(now);
    }

    /** Repair a faulted segment; any occupant keeps ownership. */
    void
    clearFault(GapId gap, Level level, sim::Tick now)
    {
        rmb_assert(faulted(gap, level), "segment (", gap, ",",
                   level, ") is not faulted");
        faulty_[planeIndex(level, gap / 64)] &= ~bit(gap);
        --faulty_n_;
        ++epoch_;
        // A severed bus mid-teardown may still hold the segment; it
        // only becomes idle once that release happens.
        if (owner_[cellIndex(gap, level)] == kNoKey)
            busy_[cellIndex(gap, level)].setFree(now);
    }

    /** Time-weighted busy fraction of one segment over [0, now]. */
    double
    utilization(GapId gap, Level level, sim::Tick now) const
    {
        return busy_[cellIndex(gap, level)].utilization(
            now, !isFree(gap, level));
    }

    /** Mean busy fraction over all N x k segments. */
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

    void
    checkLevel(Level level) const
    {
        rmb_assert(level >= 0 &&
                       static_cast<std::uint32_t>(level) < numLevels_,
                   "level ", level, " out of range");
    }

    std::size_t
    planeIndex(Level level, std::uint32_t w) const
    {
        checkLevel(level);
        return static_cast<std::size_t>(level) * words_ + w;
    }

    std::size_t
    cellIndex(GapId gap, Level level) const
    {
        rmb_assert(gap < numGaps_, "gap ", gap, " out of range");
        checkLevel(level);
        return static_cast<std::size_t>(level) * numGaps_ + gap;
    }

    std::uint32_t numGaps_;
    std::uint32_t numLevels_;
    std::uint32_t words_;
    std::vector<std::uint64_t> occ_;
    std::vector<std::uint64_t> faulty_;
    std::vector<std::uint64_t> pinned_;
    std::vector<std::uint32_t> levelOccupied_;
    std::vector<BusKey> owner_;
    std::vector<sim::BusyTracker> busy_;
    std::vector<std::uint64_t> evenGaps_;
    std::vector<std::uint64_t> oddGaps_;
    std::uint64_t occupied_ = 0;
    std::uint64_t epoch_ = 0;
    std::uint32_t faulty_n_ = 0;
};

} // namespace core
} // namespace rmb
