#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace rmb {
namespace sim {

void
EventQueue::pushNear(Tick when, Callback cb)
{
    std::uint32_t i = free_;
    if (i == kNone) {
        rmb_assert(cbs_.size() < kNone, "near-tier event pool full");
        i = static_cast<std::uint32_t>(cbs_.size());
        cbs_.push_back(std::move(cb));
        next_.push_back(kNone);
    } else {
        free_ = next_[i];
        cbs_[i] = std::move(cb);
    }
    const std::uint64_t bit = std::uint64_t{1} << (when & kMask);
    Bucket &b = wheel_[when & kMask];
    if (occupied_ & bit)
        next_[b.tail] = i;
    else
        b.head = i;
    occupied_ |= bit;
    b.tail = i;
    ++nearCount_;
}

void
EventQueue::schedule(Tick when, Callback cb)
{
    rmb_assert(cb, "scheduling a null callback");
    rmb_assert(when >= base_, "scheduling at tick ", when,
               " before the last event run (tick ", base_,
               "): schedule relative to the current tick");
    if (when - base_ < kSpan) {
        pushNear(when, std::move(cb));
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
        // their buckets, in (when, seq) order, before any callback.
        base_ = when;
        while (!heap_.empty() && heap_.front().when - base_ < kSpan) {
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            pushNear(heap_.back().when, std::move(heap_.back().cb));
            heap_.pop_back();
        }
    }
    // Move the callback out before running it so it can schedule
    // freely, into this very bucket too.
    Bucket &b = wheel_[when & kMask];
    const std::uint32_t i = b.head;
    Callback cb = std::move(cbs_[i]);
    if (i == b.tail)
        occupied_ &= ~(std::uint64_t{1} << (when & kMask));
    else
        b.head = next_[i];
    next_[i] = free_;
    free_ = i;
    --nearCount_;
    ++numExecuted_;
    cb();
    return when;
}

} // namespace sim
} // namespace rmb
