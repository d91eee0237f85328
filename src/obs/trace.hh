/**
 * @file
 * Protocol trace events and the pluggable sink interface.
 *
 * A network emits one TraceEvent per protocol action (injection,
 * header hop, Hack/Nack, compaction move, ...) into an attached
 * TraceSink.  With no sink attached the emission sites reduce to a
 * single pointer test, so tracing costs nothing unless requested.
 *
 * The event is a flat POD on purpose: sinks that buffer (the
 * RingBufferSink post-mortem buffer) copy it by value, and the JSONL
 * serialisation is a single pass over fixed fields.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "sim/types.hh"

namespace rmb {
namespace obs {

/**
 * The protocol vocabulary.  Events marked [net] are emitted by every
 * network through the shared net::Network bookkeeping; the rest are
 * RMB-specific.
 */
enum class EventKind : std::uint8_t
{
    Inject,          //!< [net] header first injected (a=dst, b=flits)
    HeaderHop,       //!< header occupied (gap, level) of one more gap
    Block,           //!< header entered the Blocked state at `node`
    Unblock,         //!< blocked header resumed advancing
    Hack,            //!< [net] circuit established (Hack at source)
    Nack,            //!< refusal; a = NackReason
    Retry,           //!< [net] re-injection (a = retry ordinal)
    Backoff,         //!< retry scheduled after a ticks of backoff
    DataFlit,        //!< data flit departed the source (a = seq)
    Dack,            //!< data-flit ack at the source (a = acked count)
    Deliver,         //!< [net] final flit accepted (a = path hops)
    Fail,            //!< [net] message permanently failed
    Teardown,        //!< teardown started; a = TeardownKind
    CompactionMake,  //!< make step: level -> a at `gap` (b = moveSeq)
    CompactionBreak, //!< break step completed; level = new, a = old
    CycleFlip,       //!< INC `node` finished a cycle (a = cycle count)
    SegmentFail,     //!< segment (gap, level) faulted (a = occupant)
    SegmentRepair,   //!< faulted segment (gap, level) repaired
    BusSevered,      //!< live bus lost a segment; a = SeverReason
    MessageRecovered, //!< delivery after >= 1 sever (a = latency)
    WatchdogFire,    //!< source watchdog expired on a silent bus
    SegmentFree,     //!< segment (gap, level) released (a = reason)
    BridgeArrive,    //!< msg admitted to a bridge buffer (node = bridge, a = occupancy after)
    BridgeDepart,    //!< msg left a bridge buffer onto its next ring (node = bridge, a = occupancy after)
    BridgeDeflect,   //!< bridge buffer full, msg deflected (node = bridge, a = backoff ticks)
    DeadLetter,      //!< msg written off with a reason (a = DeadLetterReason)
    BridgeFail,      //!< bridge taken out of service (node = bridge, a = permanent)
    BridgeRepair,    //!< failed bridge returned to service (node = bridge)
};

/** Number of EventKind values (for per-kind counters). */
constexpr std::size_t kNumEventKinds =
    static_cast<std::size_t>(EventKind::BridgeRepair) + 1;

/** Reason codes carried in the `a` field of a Nack event. */
enum NackReason : std::uint64_t
{
    kNackDestBusy = 0,   //!< destination had no free receive port
    kNackNoSegment = 1,  //!< no reachable free segment (NackRetry)
    kNackTimeout = 2,    //!< Wait-mode header timeout expired
};

/** Kind codes carried in the `a` field of a Teardown event. */
enum TeardownKind : std::uint64_t
{
    kTeardownFack = 0, //!< delivery complete, Fack freeing the bus
    kTeardownNack = 1, //!< refusal/abort, Nack freeing the bus
    kTeardownFault = 2, //!< severed by a fault or watchdog
};

/** Reason codes carried in the `a` field of a BusSevered event. */
enum SeverReason : std::uint64_t
{
    kSeverFault = 0,    //!< a held segment was fault-injected
    kSeverWatchdog = 1, //!< the source watchdog saw no progress
};

/** Reason codes carried in the `a` field of a SegmentFree event. */
enum SegmentFreeReason : std::uint64_t
{
    kFreeTeardown = 0,   //!< released by a teardown wave
    kFreeCompaction = 1, //!< old level freed by a break step
    kFreeMoveCancel = 2, //!< half-made move abandoned (fault path)
};

/** Reason codes carried in the `a` field of a DeadLetter event —
 *  the dead-letter taxonomy of docs/FAULTS.md.  Every written-off
 *  message carries exactly one reason, so
 *  delivered + deadlettered + in-flight always accounts for every
 *  injected message. */
enum DeadLetterReason : std::uint64_t
{
    kDeadRetriesExhausted = 0, //!< maxRetries spent, message dropped
    kDeadUnreachable = 1,      //!< path crosses a permanently dead gap
    kDeadStalled = 2,          //!< delivery supervisor gave up on it
    kDeadBridgeDead = 3,       //!< route needs a permanently dead bridge
};

/** Number of DeadLetterReason values (for per-reason counters). */
constexpr std::size_t kNumDeadLetterReasons = 4;

/** Stable lower_snake name of @p kind (used in the JSONL output). */
const char *eventKindName(EventKind kind);

/**
 * Reverse of eventKindName: parse @p name into @p out.  Returns
 * false (leaving @p out untouched) when the name is unknown, so
 * offline readers can reject malformed traces without panicking.
 */
bool eventKindFromName(const std::string &name, EventKind &out);

/**
 * One traced protocol action.  Fields that do not apply to a kind
 * stay at their defaults (0 / -1); the per-kind meaning of the
 * generic `a` / `b` payload is documented on EventKind.
 */
struct TraceEvent
{
    EventKind kind = EventKind::Inject;
    sim::Tick at = 0;          //!< simulated time of the action
    std::uint64_t message = 0; //!< net::MessageId, 0 = n/a
    std::uint64_t bus = 0;     //!< virtual bus id, 0 = n/a
    std::uint32_t node = 0;    //!< node / INC where it happened
    std::uint32_t gap = 0;     //!< gap touched, when meaningful
    std::int32_t level = -1;   //!< bus level, -1 = n/a
    std::uint64_t a = 0;       //!< kind-specific payload
    std::uint64_t b = 0;       //!< kind-specific payload
};

/** Serialise @p event as one JSON object (no trailing newline). */
std::string toJsonLine(const TraceEvent &event);

/**
 * Render @p event as a human-readable one-liner for post-mortem
 * dumps: aligned tick, kind, and only the fields that apply.
 */
std::string formatEvent(const TraceEvent &event);

/**
 * Receiver of trace events.  Implementations must not re-enter the
 * emitting network; they see events in emission order, which is the
 * DES execution order.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Handle one event; called synchronously at emission time. */
    virtual void onEvent(const TraceEvent &event) = 0;

    /**
     * Write whatever post-mortem context the sink holds to @p os.
     * Called from the panic path when the network this sink is
     * attached to trips an invariant; the default has nothing to
     * say.  Implementations must not allocate unboundedly or panic.
     */
    virtual void postMortem(std::ostream &os) const { (void)os; }
};

} // namespace obs
} // namespace rmb
