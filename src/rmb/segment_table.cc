#include "rmb/segment_table.hh"

#include "common/logging.hh"

namespace rmb {
namespace core {

SegmentTable::SegmentTable(std::uint32_t num_gaps,
                           std::uint32_t num_levels)
    : numGaps_(num_gaps), numLevels_(num_levels),
      grid_(static_cast<std::size_t>(num_gaps) * num_levels, kNoBus),
      faultMask_(grid_.size(), 0), busy_(grid_.size())
{
    rmb_assert(num_gaps >= 2 && num_levels >= 1,
               "segment table needs >= 2 gaps and >= 1 level");
}

std::size_t
SegmentTable::index(GapId gap, Level level) const
{
    rmb_assert(gap < numGaps_, "gap ", gap, " out of range");
    rmb_assert(level >= 0 && static_cast<std::uint32_t>(level) <
                   numLevels_,
               "level ", level, " out of range");
    return static_cast<std::size_t>(gap) * numLevels_ +
           static_cast<std::size_t>(level);
}

VirtualBusId
SegmentTable::occupant(GapId gap, Level level) const
{
    return grid_[index(gap, level)];
}

void
SegmentTable::markFaulty(GapId gap, Level level, sim::Tick now)
{
    const std::size_t i = index(gap, level);
    rmb_assert(!faultMask_[i], "segment (", gap, ",", level,
               ") is already faulted");
    faultMask_[i] = 1;
    ++faulty_;
    // A faulted segment counts as busy for utilization purposes; if
    // it is occupied it is busy already.
    if (grid_[i] == kNoBus)
        busy_[i].setBusy(now);
}

void
SegmentTable::clearFault(GapId gap, Level level, sim::Tick now)
{
    const std::size_t i = index(gap, level);
    rmb_assert(faultMask_[i], "segment (", gap, ",", level,
               ") is not faulted");
    faultMask_[i] = 0;
    --faulty_;
    // The occupant (a severed bus mid-teardown) may still hold the
    // segment; it only becomes idle once that release happens.
    if (grid_[i] == kNoBus)
        busy_[i].setFree(now);
}

void
SegmentTable::occupy(GapId gap, Level level, VirtualBusId bus,
                     sim::Tick now)
{
    rmb_assert(bus != kNoBus, "occupy by a sentinel bus id");
    const std::size_t i = index(gap, level);
    auto &cell = grid_[i];
    rmb_assert(cell == kNoBus, "segment (", gap, ",", level,
               ") already held by bus ", cell, "; bus ", bus,
               " tried to claim it");
    rmb_assert(!faultMask_[i], "segment (", gap, ",", level,
               ") is faulted; bus ", bus, " tried to claim it");
    cell = bus;
    ++occupied_;
    busy_[i].setBusy(now);
}

void
SegmentTable::release(GapId gap, Level level, VirtualBusId bus,
                      sim::Tick now)
{
    const std::size_t i = index(gap, level);
    auto &cell = grid_[i];
    rmb_assert(cell == bus, "segment (", gap, ",", level,
               ") held by bus ", cell, ", not by releasing bus ",
               bus);
    cell = kNoBus;
    --occupied_;
    if (!faultMask_[i])
        busy_[i].setFree(now);
}

std::uint32_t
SegmentTable::freeLevels(GapId gap) const
{
    std::uint32_t n = 0;
    for (Level l = 0; static_cast<std::uint32_t>(l) < numLevels_; ++l)
        if (isFree(gap, l))
            ++n;
    return n;
}

Level
SegmentTable::lowestFree(GapId gap) const
{
    for (Level l = 0; static_cast<std::uint32_t>(l) < numLevels_; ++l)
        if (isFree(gap, l))
            return l;
    return kNoLevel;
}

double
SegmentTable::utilization(GapId gap, Level level, sim::Tick now) const
{
    return busy_[index(gap, level)].utilization(now, !isFree(gap, level));
}

double
SegmentTable::averageUtilization(sim::Tick now) const
{
    if (now == 0 || busy_.empty())
        return 0.0;
    // Cell-index (gap-major) order, the order of busy_.
    double total = 0.0;
    for (GapId g = 0; g < numGaps_; ++g)
        for (Level l = 0; static_cast<std::uint32_t>(l) < numLevels_; ++l)
            total += utilization(g, l, now);
    return total / static_cast<double>(busy_.size());
}

} // namespace core
} // namespace rmb
