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
 * the last event run) sit in a sim::TickWheel, one FIFO list per tick;
 * later ones wait in a (when, seq) min-heap.  When the base advances,
 * heap entries now within the span move to the wheel in heap order
 * before any callback at the new base runs, so the firing order is
 * exactly (when, scheduling order).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/tick_wheel.hh"
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
    std::uint64_t size() const { return wheel_.size() + heap_.size(); }

    /** Tick of the earliest pending event; kMaxTick when empty. */
    Tick
    nextTick() const
    {
        if (wheel_.empty())
            return heap_.empty() ? kMaxTick : heap_.front().when;
        return wheel_.first(base_, kMaxTick);
    }

    /**
     * Pop and run the earliest event.  Must not be called on an empty
     * queue.
     * @return the tick the event fired at.
     */
    Tick runOne();

    /** Total number of events executed so far. */
    std::uint64_t numExecuted() const { return numExecuted_; }

    /** Wheel span in ticks, one bitmap word: it covers INC periods,
     *  header and ack hops and a 32-flit stream. */
    static constexpr Tick kSpan = 64;

  private:
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

    //! Near tier: ticks base_ <= t < base_ + kSpan.
    TickWheel<Callback> wheel_{kSpan};
    Tick base_ = 0;
    //! Far tier: min-heap under Later of the ticks from base_ + kSpan on.
    std::vector<Entry> heap_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t numExecuted_ = 0;
};

} // namespace sim
} // namespace rmb
