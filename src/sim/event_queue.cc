#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace rmb {
namespace sim {

void
EventQueue::schedule(Tick when, Callback cb)
{
    rmb_assert(cb, "scheduling a null callback");
    rmb_assert(when >= base_, "scheduling at tick ", when,
               " before the last event run (tick ", base_,
               "): schedule relative to the current tick");
    if (when - base_ < kSpan) {
        wheel_.push(when, std::move(cb));
        return;
    }
    heap_.push_back(Entry{when, nextSeq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Tick
EventQueue::runOne()
{
    rmb_assert(!empty(), "runOne() on an empty event queue");
    const Tick when = nextTick();
    if (when != base_) {
        // The base advances: heap entries now within the span move to
        // the wheel, in (when, seq) order, before any callback.
        base_ = when;
        while (!heap_.empty() && heap_.front().when - base_ < kSpan) {
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            wheel_.push(heap_.back().when, std::move(heap_.back().cb));
            heap_.pop_back();
        }
    }
    // Move the callback out before running it so it can schedule
    // freely, into this very tick too.
    Callback cb = wheel_.pop(when);
    ++numExecuted_;
    cb();
    return when;
}

} // namespace sim
} // namespace rmb
