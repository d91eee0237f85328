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
 */

#pragma once

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

    /** Schedule @p cb to fire at absolute time @p when. */
    void schedule(Tick when, Callback cb);

    /** @return true if no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::uint64_t size() const { return heap_.size(); }

    /** Tick of the earliest pending event; kMaxTick when empty. */
    Tick
    nextTick() const
    {
        return heap_.empty() ? kMaxTick : heap_.front().when;
    }

    /**
     * Pop and run the earliest event.  Must not be called on an empty
     * queue.
     * @return the tick the event fired at.
     */
    Tick runOne();

    /** Total number of events executed so far. */
    std::uint64_t numExecuted() const { return numExecuted_; }

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

    /** Binary min-heap under Later (std::push_heap/pop_heap). */
    std::vector<Entry> heap_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t numExecuted_ = 0;
};

} // namespace sim
} // namespace rmb
