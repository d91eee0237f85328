#include "obs/span.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace rmb {
namespace obs {

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Backoff: return "backoff";
      case SpanKind::Setup: return "setup";
      case SpanKind::Streaming: return "streaming";
      case SpanKind::Blocked: return "blocked";
      case SpanKind::Teardown: return "teardown";
      case SpanKind::SegmentOccupancy: return "segment_occupancy";
      case SpanKind::CompactionMove: return "compaction_move";
      case SpanKind::IncCycle: return "inc_cycle";
    }
    panic("unknown SpanKind ", static_cast<int>(kind));
}

void
SpanBuilder::close(Span span, sim::Tick end)
{
    span.end = end;
    if (!span.open) {
        phaseStats_[static_cast<std::size_t>(span.kind)].add(
            static_cast<double>(span.duration()));
    }
    spans_.push_back(span);
}

void
SpanBuilder::closeOpenMessagePhases(const TraceEvent &event,
                                    bool severed)
{
    for (auto *open : {&openSetup_, &openStreaming_, &openBlocked_}) {
        auto it = open->find(event.message);
        if (it == open->end())
            continue;
        Span span = it->second;
        open->erase(it);
        span.severed = severed;
        close(span, event.at);
    }
}

void
SpanBuilder::onEvent(const TraceEvent &event)
{
    rmb_assert(!finished_,
               "SpanBuilder::onEvent after finish()");
    ++eventCount_;
    switch (event.kind) {
      case EventKind::Inject:
      case EventKind::Retry: {
        Span span;
        span.kind = SpanKind::Setup;
        span.begin = event.at;
        span.message = event.message;
        span.node = event.node;
        // Attempt ordinal: 0 on the first injection, the retry
        // count afterwards.
        span.a = event.kind == EventKind::Retry ? event.a : 0;
        openSetup_[event.message] = span;
        break;
      }
      case EventKind::Backoff: {
        Span span;
        span.kind = SpanKind::Backoff;
        span.begin = event.at;
        span.message = event.message;
        span.node = event.node;
        span.a = event.a;
        close(span, event.at + event.a);
        break;
      }
      case EventKind::Hack: {
        auto it = openSetup_.find(event.message);
        if (it != openSetup_.end()) {
            Span span = it->second;
            openSetup_.erase(it);
            close(span, event.at);
        }
        Span span;
        span.kind = SpanKind::Streaming;
        span.begin = event.at;
        span.message = event.message;
        span.bus = event.bus;
        span.node = event.node;
        openStreaming_[event.message] = span;
        break;
      }
      case EventKind::Nack: {
        auto it = openSetup_.find(event.message);
        if (it != openSetup_.end()) {
            Span span = it->second;
            openSetup_.erase(it);
            span.refused = true;
            close(span, event.at);
        }
        instants_.push_back(event);
        break;
      }
      case EventKind::Deliver: {
        auto it = openStreaming_.find(event.message);
        if (it != openStreaming_.end()) {
            Span span = it->second;
            openStreaming_.erase(it);
            close(span, event.at);
        }
        break;
      }
      case EventKind::Fail:
        closeOpenMessagePhases(event, false);
        instants_.push_back(event);
        break;
      case EventKind::Block: {
        Span span;
        span.kind = SpanKind::Blocked;
        span.begin = event.at;
        span.message = event.message;
        span.bus = event.bus;
        span.node = event.node;
        span.gap = event.gap;
        openBlocked_[event.message] = span;
        break;
      }
      case EventKind::Unblock: {
        auto it = openBlocked_.find(event.message);
        if (it != openBlocked_.end()) {
            Span span = it->second;
            openBlocked_.erase(it);
            close(span, event.at);
        }
        break;
      }
      case EventKind::Teardown: {
        OpenTeardown open;
        open.span.kind = SpanKind::Teardown;
        open.span.begin = event.at;
        open.span.end = event.at;
        open.span.message = event.message;
        open.span.bus = event.bus;
        open.span.node = event.node;
        open.span.a = event.a;
        openTeardown_[event.bus] = open;
        break;
      }
      case EventKind::HeaderHop: {
        Span span;
        span.kind = SpanKind::SegmentOccupancy;
        span.begin = event.at;
        span.message = event.message;
        span.bus = event.bus;
        span.node = event.node;
        span.gap = event.gap;
        span.level = event.level;
        openSegments_[segKey(event.gap, event.level)] = span;
        break;
      }
      case EventKind::CompactionMake: {
        // The make step claims the *target* level (a) while the old
        // level keeps carrying the signal: a new occupancy lane
        // opens at (gap, a) and a move interval opens keyed by the
        // old level.
        const auto target = static_cast<std::int32_t>(event.a);
        Span seg;
        seg.kind = SpanKind::SegmentOccupancy;
        seg.begin = event.at;
        seg.message = event.message;
        seg.bus = event.bus;
        seg.node = event.node;
        seg.gap = event.gap;
        seg.level = target;
        openSegments_[segKey(event.gap, target)] = seg;

        Span move;
        move.kind = SpanKind::CompactionMove;
        move.begin = event.at;
        move.message = event.message;
        move.bus = event.bus;
        move.node = event.node;
        move.gap = event.gap;
        move.level = event.level;
        move.a = event.a;
        openMoves_[segKey(event.gap, event.level)] = move;
        break;
      }
      case EventKind::CompactionBreak: {
        // level = new (to) level, a = freed (from) level: the move
        // was keyed by the from level.
        auto it = openMoves_.find(
            segKey(event.gap, static_cast<std::int32_t>(event.a)));
        if (it != openMoves_.end()) {
            Span span = it->second;
            openMoves_.erase(it);
            close(span, event.at);
        }
        break;
      }
      case EventKind::SegmentFree: {
        auto seg = openSegments_.find(
            segKey(event.gap, event.level));
        if (seg != openSegments_.end()) {
            Span span = seg->second;
            openSegments_.erase(seg);
            close(span, event.at);
        }
        auto td = openTeardown_.find(event.bus);
        if (td != openTeardown_.end()) {
            td->second.span.end = event.at;
            td->second.sawFree = true;
        }
        if (event.a == kFreeMoveCancel) {
            // A fault cancelled or early-completed a half-made
            // move.  The freed level tells which: the target
            // (cancel, move keyed one level up) or the old level
            // (early completion, move keyed at this level).
            auto cancel = openMoves_.find(
                segKey(event.gap, event.level + 1));
            if (cancel != openMoves_.end()) {
                Span span = cancel->second;
                openMoves_.erase(cancel);
                span.severed = true;
                close(span, event.at);
            } else {
                auto early = openMoves_.find(
                    segKey(event.gap, event.level));
                if (early != openMoves_.end()) {
                    Span span = early->second;
                    openMoves_.erase(early);
                    close(span, event.at);
                }
            }
        }
        break;
      }
      case EventKind::CycleFlip: {
        auto it = openCycles_.find(event.node);
        if (it != openCycles_.end()) {
            Span span = it->second;
            close(span, event.at);
        }
        Span span;
        span.kind = SpanKind::IncCycle;
        span.begin = event.at;
        span.node = event.node;
        span.gap = event.gap;
        span.a = event.a;
        openCycles_[event.node] = span;
        break;
      }
      case EventKind::BusSevered:
        closeOpenMessagePhases(event, true);
        instants_.push_back(event);
        break;
      case EventKind::SegmentFail:
      case EventKind::SegmentRepair:
      case EventKind::MessageRecovered:
      case EventKind::WatchdogFire:
      case EventKind::BridgeArrive:
      case EventKind::BridgeDepart:
      case EventKind::BridgeDeflect:
        instants_.push_back(event);
        break;
      case EventKind::DataFlit:
      case EventKind::Dack:
        // Per-flit events stay inside the Streaming span.
        break;
      case EventKind::DeadLetter:
        // deadLetterMessage is always followed by noteFailed's Fail,
        // which closes the message's phases and records the instant.
      case EventKind::BridgeFail:
      case EventKind::BridgeRepair:
        // Bridge service changes belong to no message's phases.
        break;
    }
}

void
SpanBuilder::finish(sim::Tick now)
{
    if (finished_)
        return;
    finished_ = true;
    for (auto *open : {&openSetup_, &openStreaming_, &openBlocked_,
                       &openSegments_, &openMoves_}) {
        for (auto &[key, span] : *open) {
            span.open = true;
            close(span, now);
        }
        open->clear();
    }
    for (auto &[bus, td] : openTeardown_) {
        // A teardown that freed at least one segment ends at its
        // last free; one that never got that far is truly open.
        if (td.sawFree) {
            close(td.span, td.span.end);
        } else {
            td.span.open = true;
            close(td.span, now);
        }
    }
    openTeardown_.clear();
    for (auto &[node, span] : openCycles_) {
        span.open = true;
        close(span, now);
    }
    openCycles_.clear();
}

const sim::SampleStat &
SpanBuilder::phaseStat(SpanKind kind) const
{
    const auto index = static_cast<std::size_t>(kind);
    rmb_assert(index < kNumSpanKinds, "bad SpanKind");
    return phaseStats_[index];
}

std::vector<std::string>
checkTrace(const std::vector<TraceEvent> &events)
{
    std::vector<std::string> problems;
    const auto report = [&problems](const std::string &msg) {
        problems.push_back(msg);
    };

    sim::Tick prev = 0;
    std::map<std::uint64_t, std::uint64_t> segOwner; // key -> bus
    std::map<std::uint64_t, std::uint64_t> busHeld;  // bus -> count
    std::map<std::uint64_t, bool> injected;
    std::map<std::uint64_t, bool> hacked;
    std::map<std::uint64_t, bool> delivered;
    std::map<std::uint64_t, std::uint64_t> fackBus; // msg -> bus
    std::map<std::uint32_t, std::uint64_t> cycles;  // INC -> count
    std::uint32_t maxFlipNode = 0;
    bool sawFlip = false;

    const auto segKey = [](std::uint32_t gap, std::int32_t level) {
        return (static_cast<std::uint64_t>(gap) << 32) |
               static_cast<std::uint32_t>(level);
    };
    const auto occupy = [&](const TraceEvent &e, std::int32_t level) {
        const std::uint64_t key = segKey(e.gap, level);
        auto it = segOwner.find(key);
        if (it != segOwner.end()) {
            report(detail::concat(
                "[", e.at, "] segment (gap ", e.gap, ", level ",
                level, ") claimed by bus ", e.bus,
                " while held by bus ", it->second));
            return;
        }
        segOwner[key] = e.bus;
        ++busHeld[e.bus];
    };

    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &e = events[i];
        if (i > 0 && e.at < prev) {
            report(detail::concat(
                "event ", i, " (", eventKindName(e.kind),
                ") goes back in time: ", e.at, " after ", prev));
        }
        prev = e.at;

        switch (e.kind) {
          case EventKind::Inject:
            injected[e.message] = true;
            break;
          case EventKind::Hack:
            if (!injected.count(e.message)) {
                report(detail::concat(
                    "[", e.at, "] hack for message ", e.message,
                    " without a prior inject"));
            }
            hacked[e.message] = true;
            break;
          case EventKind::Deliver:
            if (!hacked.count(e.message)) {
                report(detail::concat(
                    "[", e.at, "] deliver of message ", e.message,
                    " without a prior hack"));
            }
            delivered[e.message] = true;
            break;
          case EventKind::Teardown:
            if (e.a == kTeardownFack)
                fackBus[e.message] = e.bus;
            break;
          case EventKind::HeaderHop:
            occupy(e, e.level);
            break;
          case EventKind::CompactionMake:
            occupy(e, static_cast<std::int32_t>(e.a));
            break;
          case EventKind::SegmentFree: {
            const std::uint64_t key = segKey(e.gap, e.level);
            auto it = segOwner.find(key);
            if (it == segOwner.end()) {
                report(detail::concat(
                    "[", e.at, "] segment (gap ", e.gap, ", level ",
                    e.level, ") freed while already free"));
                break;
            }
            if (it->second != e.bus) {
                report(detail::concat(
                    "[", e.at, "] segment (gap ", e.gap, ", level ",
                    e.level, ") freed by bus ", e.bus,
                    " but held by bus ", it->second));
            }
            auto held = busHeld.find(it->second);
            if (held != busHeld.end() && held->second > 0)
                --held->second;
            segOwner.erase(it);
            break;
          }
          case EventKind::CycleFlip:
            cycles[e.node] = e.a;
            maxFlipNode = std::max(maxFlipNode, e.node);
            sawFlip = true;
            break;
          default:
            break;
        }
    }

    // A delivered message must get its bus back: a Fack teardown
    // must start and every segment of that bus must be freed by the
    // end of the trace.  A dropped Fack shows up here.
    for (const auto &[msg, ok] : delivered) {
        auto it = fackBus.find(msg);
        if (it == fackBus.end()) {
            report(detail::concat(
                "message ", msg,
                " delivered but its bus never started a Fack"
                " teardown (dropped Fack?)"));
            continue;
        }
        auto held = busHeld.find(it->second);
        if (held != busHeld.end() && held->second != 0) {
            report(detail::concat(
                "bus ", it->second, " of delivered message ", msg,
                " still holds ", held->second,
                " segment(s) at trace end"));
        }
    }

    // Lemma 1: the systolic hand-shake keeps adjacent INC cycle
    // counts within 1 of each other at every instant, including the
    // final one recorded here.
    if (sawFlip) {
        const std::uint32_t n = maxFlipNode + 1;
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t j = (i + 1) % n;
            const std::uint64_t a =
                cycles.count(i) ? cycles[i] : 0;
            const std::uint64_t b =
                cycles.count(j) ? cycles[j] : 0;
            const std::uint64_t skew = a > b ? a - b : b - a;
            if (skew > 1) {
                report(detail::concat(
                    "Lemma 1 violated: INC ", i, " cycle count ", a,
                    " vs neighbour INC ", j, " count ", b,
                    " (skew ", skew, " > 1)"));
            }
        }
    }
    return problems;
}

} // namespace obs
} // namespace rmb
