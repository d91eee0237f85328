/**
 * @file
 * CycleKernelEngine: the time-stepped structure-of-arrays backend.
 *
 * Same protocol as RmbNetwork, through the same RingEngine steps
 * (top-bus injection, the header walk with Hack/Nack, closed-form
 * pipelined streaming, teardown and retry, fault sever/recovery, the
 * make and break bodies of a compaction move), on a different
 * execution model:
 *
 *  - The compaction make step filters its candidates word-parallel
 *    per level over the segment grid's uint64_t bitplanes
 *    (rmb/segment_planes.hh) instead of per-INC events; the kernel
 *    pins the cells of tearing-down buses so the filter drops them.
 *  - Compaction is one synchronous global cycle of fixed period P
 *    (drawn once from [cyclePeriodMin, cyclePeriodMax]): gap g moves
 *    its levels of parity (g + c) mod 2 at cycle c - the same
 *    odd/even schedule the per-INC FSMs converge to, with skew
 *    pinned to 0.  Eligibility is the *shared* Figure-7 rule
 *    (hopMovableRule), re-evaluated per candidate, so any
 *    serialization the event engine could produce is also legal
 *    here.
 *  - Protocol steps live on a pooled sim::TickWheel and a far list,
 *    not the event queue: the engine keeps at most one pending
 *    simulator event (its next due tick), and drains every action
 *    for that tick in one wake.  simulator().now() therefore stays
 *    the single time source, and all message timestamps are exact.
 *  - Every wheel action is one RingEngine step kind and names its bus
 *    by a BusHandle (pool slot and generation); retirement and a
 *    sever start a new generation, which lazily invalidates every
 *    in-flight action of the bus - the kernel never cancels.  The
 *    kernel runs the make body for the candidates its word-parallel
 *    scan leaves.
 *
 * Configurations the kernel cannot model (detailedFlits, Wait-mode
 * blocking) are refused by RmbConfig::validate() with the exact
 * option to change; watchdogTimeout runs through the engine-generic
 * DeliverySupervisor (rmb/supervisor.hh).  Multicast/broadcast are
 * RmbNetwork APIs, not part of the Engine contract.  See
 * docs/ENGINE.md.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.hh"
#include "rmb/config.hh"
#include "rmb/ring_engine.hh"
#include "rmb/types.hh"
#include "rmb/virtual_bus.hh"
#include "sim/tick_wheel.hh"

namespace rmb {
namespace core {

class CycleKernelEngine final : public RingEngine
{
  public:
    CycleKernelEngine(sim::Simulator &simulator,
                      const RmbConfig &config);
    ~CycleKernelEngine() override;

    void auditInvariants() const override;

    /** Completed global compaction cycles (make steps). */
    std::uint64_t cycles() const { return cycleIndex_; }

  private:
    /** One deferred protocol step, on the wheel or the far list. */
    struct Action
    {
        /** The bus's handle, or the node for an injection. */
        std::uint64_t target;
        sim::Tick due;
        /** The bus step to run; unused for an injection. */
        StepKind kind;
        bool inject;
    };

    static constexpr sim::Tick kNever = ~sim::Tick{0};

    // --- agenda (wheel + far list + cycle clock) ---
    void scheduleAction(sim::Tick delay, std::uint64_t target,
                        StepKind kind, bool inject);
    void ensureWake(sim::Tick due);
    void onWake();
    void processTick(sim::Tick now);
    sim::Tick nextDue() const;
    void rearm();

    // --- RingEngine hooks ---
    void scheduleInject(net::NodeId node, sim::Tick delay) override;
    /** Also arms the cycle clock at a bus's first header step and
     *  pins the bus's cells when its teardown starts. */
    void scheduleStep(StepKind kind, sim::Tick delay,
                      VirtualBus &bus) override;
    /** The wheel cannot lose actions and closed-form streaming is
     *  one pre-scheduled action: no bus ever goes silent. */
    bool canStall(const VirtualBus &) const override { return false; }
    /** A fault change may wake the sleeping cycle clock. */
    void afterFaultChange() override;

    // --- compaction cycle ---
    void armCycle();
    void makeStep(sim::Tick now);
    void breakStep();
    void exitQuietCycles(sim::Tick now);

    /** Global compaction period, drawn once; it sizes the wheel. */
    sim::Tick period_ = 0;
    /** Actions due from now to now + span - 1, FIFO per tick. */
    sim::TickWheel<Action> wheel_;
    /** Actions due a span or more ahead, unsorted; they move to the
     *  wheel, in this order, once in range (processTick()). */
    std::vector<Action> farActions_;
    sim::Tick farMinDue_ = kNever;
    /** Earliest armed simulator wake; kNever when idle. */
    sim::Tick armedAt_ = kNever;
    /** The tick currently being processed (reentrancy guard). */
    sim::Tick processing_ = kNever;

    // Synchronous compaction clock (period_ above).
    bool cycleArmed_ = false;
    sim::Tick nextMakeAt_ = kNever;
    sim::Tick nextBreakAt_ = kNever;
    std::uint64_t cycleIndex_ = 0;
    std::vector<MoveRecord> moveRecords_;
    /**
     * Plane epoch at which a make pass of the given cycle parity
     * last found nothing to move; while the epoch still matches,
     * the same pass would find nothing again and is skipped.
     */
    std::uint64_t noMoveEpoch_[2] = {~0ull, ~0ull};
    /**
     * Quiet mode: both parities proved no-move at quietEpoch_, so
     * the cycle clock stops waking at all; exitQuietCycles()
     * accounts the slept (provably no-op) cycles when the grid
     * next changes.
     */
    bool cycleQuiet_ = false;
    std::uint64_t quietEpoch_ = 0;
};

} // namespace core
} // namespace rmb
