#include "sim/simulator.hh"

#include "common/logging.hh"

namespace rmb {
namespace sim {

void
Simulator::scheduleAt(Tick when, EventQueue::Callback cb)
{
    rmb_assert(when >= now_, "scheduling into the past: when=", when,
               " now=", now_);
    events_.schedule(when, std::move(cb));
}

std::uint64_t
Simulator::run(std::uint64_t max_events)
{
    std::uint64_t executed = 0;
    while (!events_.empty() && executed < max_events) {
        now_ = events_.nextTick();
        events_.runOne();
        ++executed;
    }
    return executed;
}

std::uint64_t
Simulator::runUntil(Tick until)
{
    const Tick saved_horizon = horizon_;
    horizon_ = until;
    std::uint64_t executed = 0;
    while (!events_.empty()) {
        const Tick next = events_.nextTick();
        if (next > until)
            break;
        now_ = next;
        events_.runOne();
        ++executed;
    }
    if (now_ < until)
        now_ = until;
    horizon_ = saved_horizon;
    return executed;
}

} // namespace sim
} // namespace rmb
