#include "obs/trace.hh"

#include <sstream>

#include "common/logging.hh"

namespace rmb {
namespace obs {

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Inject: return "inject";
      case EventKind::HeaderHop: return "header_hop";
      case EventKind::Block: return "block";
      case EventKind::Unblock: return "unblock";
      case EventKind::Hack: return "hack";
      case EventKind::Nack: return "nack";
      case EventKind::Retry: return "retry";
      case EventKind::Backoff: return "backoff";
      case EventKind::DataFlit: return "data_flit";
      case EventKind::Dack: return "dack";
      case EventKind::Deliver: return "deliver";
      case EventKind::Fail: return "fail";
      case EventKind::Teardown: return "teardown";
      case EventKind::CompactionMake: return "compaction_make";
      case EventKind::CompactionBreak: return "compaction_break";
      case EventKind::CycleFlip: return "cycle_flip";
      case EventKind::SegmentFail: return "segment_fail";
      case EventKind::SegmentRepair: return "segment_repair";
      case EventKind::BusSevered: return "bus_severed";
      case EventKind::MessageRecovered: return "message_recovered";
      case EventKind::WatchdogFire: return "watchdog_fire";
      case EventKind::SegmentFree: return "segment_free";
      case EventKind::BridgeArrive: return "bridge_arrive";
      case EventKind::BridgeDepart: return "bridge_depart";
      case EventKind::BridgeDeflect: return "bridge_deflect";
      case EventKind::DeadLetter: return "dead_letter";
      case EventKind::BridgeFail: return "bridge_fail";
      case EventKind::BridgeRepair: return "bridge_repair";
    }
    panic("unknown EventKind ", static_cast<int>(kind));
}

bool
eventKindFromName(const std::string &name, EventKind &out)
{
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
        EventKind kind = static_cast<EventKind>(k);
        if (name == eventKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

std::string
toJsonLine(const TraceEvent &event)
{
    // Fixed key set in a fixed order so consumers can parse the
    // lines with anything from jq to a CSV-minded awk script.
    std::ostringstream out;
    out << "{\"at\":" << event.at
        << ",\"kind\":\"" << eventKindName(event.kind) << '"'
        << ",\"msg\":" << event.message
        << ",\"bus\":" << event.bus
        << ",\"node\":" << event.node
        << ",\"gap\":" << event.gap
        << ",\"level\":" << event.level
        << ",\"a\":" << event.a
        << ",\"b\":" << event.b << '}';
    return out.str();
}

std::string
formatEvent(const TraceEvent &event)
{
    std::ostringstream out;
    out << '[' << event.at << "] " << eventKindName(event.kind);
    if (event.message != 0)
        out << " msg=" << event.message;
    if (event.bus != 0)
        out << " bus=" << event.bus;
    out << " node=" << event.node;
    if (event.level >= 0)
        out << " gap=" << event.gap << " level=" << event.level;
    if (event.a != 0 || event.b != 0)
        out << " a=" << event.a;
    if (event.b != 0)
        out << " b=" << event.b;
    return out.str();
}

} // namespace obs
} // namespace rmb
