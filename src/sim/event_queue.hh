/**
 * @file
 * The discrete-event queue underlying every simulation in this
 * repository.
 *
 * Events are arbitrary callables scheduled at absolute ticks.  Events
 * scheduled for the same tick fire in scheduling order (a stable FIFO
 * within a tick), which keeps simulations deterministic for a given
 * seed.  A scheduled event always fires: there is no cancellation, so
 * a component that may abandon work checks its own state when the
 * event runs.
 *
 * Two tiers: events due within kSpan ticks of the base (the tick of
 * the last event run) sit in a bucket wheel, one FIFO list per tick
 * found through an occupancy bitmap; later ones wait in a (when, seq)
 * min-heap.  When the base advances, heap entries now within the span
 * move to their buckets in heap order before any callback at the new
 * base runs, so the firing order is exactly (when, scheduling order).
 */

#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace rmb {
namespace sim {

/**
 * Time-ordered queue of callbacks.  Not thread safe; the entire
 * simulator is single threaded by design.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Schedule @p cb to fire at absolute time @p when, which must
     *  not precede the tick of the last event run. */
    void schedule(Tick when, Callback cb);

    /** @return true if no events are pending. */
    bool empty() const { return size() == 0; }

    /** Number of pending events. */
    std::uint64_t size() const { return nearCount_ + heap_.size(); }

    /** Tick of the earliest pending event; kMaxTick when empty. */
    Tick
    nextTick() const
    {
        if (occupied_ == 0)
            return heap_.empty() ? kMaxTick : heap_.front().when;
        const int shift = static_cast<int>(base_ & kMask);
        return base_ + static_cast<Tick>(
                           std::countr_zero(std::rotr(occupied_, shift)));
    }

    /**
     * Pop and run the earliest event.  Must not be called on an empty
     * queue.
     * @return the tick the event fired at.
     */
    Tick runOne();

    /** Total number of events executed so far. */
    std::uint64_t numExecuted() const { return numExecuted_; }

    /** Wheel span in ticks, one occupied_ bit per bucket: it covers
     *  INC periods, header and ack hops and a 32-flit stream. */
    static constexpr Tick kSpan = 64;

  private:
    static constexpr Tick kMask = kSpan - 1;

    struct Entry
    {
        Tick when;
        std::uint64_t seq;   //!< tie-break: FIFO within a tick
        Callback cb;
    };

    /** Heap order: (when, seq) is a strict total order, so the
     *  firing order does not depend on the heap's layout. */
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    static constexpr std::uint32_t kNone = UINT32_MAX;

    /** The events of one tick: a FIFO list of slots, linked by next_;
     *  meaningful only while the tick's occupied_ bit is set. */
    struct Bucket
    {
        std::uint32_t head = 0;
        std::uint32_t tail = 0;
    };

    void pushNear(Tick when, Callback cb);

    //! Near tier: wheel_[t & kMask] holds tick t, base_ <= t < base_ + kSpan.
    Bucket wheel_[kSpan];
    /** Slots shared by all buckets, so the near tier's memory is its
     *  peak number of pending events, as a heap's would be. */
    std::vector<Callback> cbs_;
    std::vector<std::uint32_t> next_;  //!< next slot in its list
    std::uint32_t free_ = kNone;       //!< list of unused slots
    std::uint64_t occupied_ = 0;  //!< bit b: wheel_[b] has events
    std::uint64_t nearCount_ = 0;
    Tick base_ = 0;
    //! Far tier: min-heap under Later of the ticks from base_ + kSpan on.
    std::vector<Entry> heap_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t numExecuted_ = 0;
};

} // namespace sim
} // namespace rmb
