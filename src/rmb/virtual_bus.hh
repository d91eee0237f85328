/**
 * @file
 * A virtual bus: the chain of physical bus segments carrying one
 * message (paper section 2.2, Figure 2), and the make-before-break
 * move that sinks one of its hops a level (section 2.5).  Both flat
 * backends keep the same record in one pool (core::RingEngine).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "netbase/message.hh"
#include "rmb/types.hh"
#include "sim/types.hh"

namespace rmb {
namespace core {

/**
 * One hop of a virtual bus: the physical segment it occupies in one
 * gap.  During a make-before-break downward move the hop briefly owns
 * two segments: `level` (the old, upper one) and `dualLevel` (the
 * new, lower one); outside a move dualLevel == kNoLevel.
 */
struct Hop
{
    GapId gap = 0;
    Level level = kNoLevel;
    Level dualLevel = kNoLevel;
    /** Increments on every move; stale break events check it. */
    std::uint32_t moveSeq = 0;

    bool inMove() const { return dualLevel != kNoLevel; }

    /** The level the hop will sit at once any in-flight move ends. */
    Level
    settledLevel() const
    {
        return inMove() ? dualLevel : level;
    }
};

/** Protocol state of a virtual bus. */
enum class BusState : std::uint8_t
{
    Advancing,   //!< header flit moving toward the destination
    Blocked,     //!< header waiting for a free reachable segment
    AwaitHack,   //!< header accepted; Hack travelling back to source
    Streaming,   //!< data flits flowing
    FackTeardown, //!< FF delivered; Fack freeing hops back to source
    NackTeardown, //!< refused/aborted; Nack freeing hops to source
    FaultTeardown, //!< severed by a segment fault or watchdog; like
                   //!< NackTeardown (the message retries) but kept
                   //!< distinct for tracing and recovery metrics
};

/** True for any of the three teardown states. */
inline bool
isTeardown(BusState s)
{
    return s == BusState::FackTeardown ||
           s == BusState::NackTeardown ||
           s == BusState::FaultTeardown;
}

/**
 * One virtual bus, as both flat backends keep it: one slot of
 * core::RingEngine's bus pool.  The hops are ordered from the source
 * gap to the head gap.  A slot outlives its bus: when the bus
 * retires the slot goes back to the pool with `live` cleared and its
 * generation bumped, and the next bus opened there starts from a
 * blank record (only the hops' capacity carries over).
 */
struct VirtualBus
{
    VirtualBusId id = kNoBus;
    /** The pool slot: the owner key of every segment the bus
     *  claims. */
    BusKey key = kNoKey;
    /** True from open to retirement. */
    bool live = false;
    /** Bumped on retirement and on a sever; a BusHandle of another
     *  generation is stale. */
    std::uint32_t gen = 0;
    net::MessageId message = net::kNoMessage;
    net::NodeId src = 0;
    net::NodeId dst = 0;
    BusState state = BusState::Advancing;

    std::vector<Hop> hops;

    /** Node the header flit currently sits at (or is travelling to). */
    net::NodeId headNode = 0;

    /** Gaps already freed by a travelling Fack/Nack (from the head). */
    std::uint32_t hopsFreed = 0;

    sim::Tick injectedAt = 0;
    /**
     * Bumped on every protocol step this bus makes (advance, block,
     * ack, flit, teardown step).  The source-side watchdog snapshots
     * it and fires only if the bus made no progress for a whole
     * watchdog period - the signature of a silently lost ack.
     */
    std::uint64_t epoch = 0;
    /** True once the (source gap, top) segment released (stats). */
    bool topReleased = false;

    // --- event engine only: Wait mode and detailed flits ---

    /** Tick the header became blocked (for the optional timeout). */
    sim::Tick blockedSince = 0;

    /**
     * Detailed flit-level streaming state (RmbConfig::detailedFlits).
     * Flit sequence numbers run 0..payload, the last one being the
     * final flit (FF).
     */
    std::uint32_t flitsSent = 0;     //!< departures so far
    std::uint32_t flitsAcked = 0;    //!< Dacks received at the source
    std::uint32_t flitsAtDst = 0;    //!< in-order arrivals at the dst
    sim::Tick lastFlitDepart = 0;    //!< tick of the last departure
    sim::Tick lastFlitArrive = 0;    //!< tick of the last dst arrival
    bool pumpStalled = false;        //!< window closed, pump paused

    /** The gap the source PE injects on. */
    GapId srcGap() const { return src; }
};

/**
 * A make step awaiting its break (paper section 2.5, Figure 4): the
 * hop at @p hopIndex of bus @p bus, in pool slot @p slot, holds both
 * @p fromLevel and the level below it.  The bus id is unique per
 * life, so a break whose slot has been reused finds another id and
 * drops the record; the hop index is fixed for a bus's life.
 */
struct MoveRecord
{
    std::uint32_t slot;
    std::uint32_t hopIndex;
    VirtualBusId bus;
    Level fromLevel;
};

} // namespace core
} // namespace rmb
