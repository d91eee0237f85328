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
    heap_.push_back(Entry{when, nextSeq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Tick
EventQueue::runOne()
{
    rmb_assert(!heap_.empty(), "runOne() on an empty event queue");
    // Move the entry out before running it so the callback can freely
    // schedule new events (which may reallocate the heap).
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry top = std::move(heap_.back());
    heap_.pop_back();
    ++numExecuted_;
    top.cb();
    return top.when;
}

} // namespace sim
} // namespace rmb
