/**
 * @file
 * CycleKernelEngine: the time-stepped structure-of-arrays backend.
 *
 * Same protocol as RmbNetwork (header propagation with Hack/Nack,
 * closed-form pipelined streaming, make-before-break compaction), and
 * the same source side through RingEngine (top-bus injection, retry,
 * teardown, fault sever/recovery), on a different execution model:
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
 *  - Virtual buses live in a recycled slot pool with generation
 *    counters; a sever or teardown bumps the generation, which
 *    lazily invalidates every in-flight wheel action of the old
 *    life - the kernel never cancels.
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

    // --- delivery supervisor hooks (docs/ENGINE.md) ---

    /** Base stamp + the carrying pooled bus's id/state/gen/extent. */
    std::uint64_t progressStamp(net::MessageId id) const override;

    /**
     * Testing-only seeded divergence (tests/engine_diff_test.cc's
     * WILL_FAIL probe): ShortCircuit delivers every message one node
     * early, which the outcome digest must catch via pathHops.
     * Never set outside tests.
     */
    enum class TestMutation : std::uint8_t
    {
        None,
        ShortCircuit,
    };
    void setTestMutation(TestMutation m) { mutation_ = m; }

  private:
    /** One pooled virtual bus (its key is its slot). */
    struct KBus : BusRecord
    {
        bool live = false;
        /** Bumped on teardown start and retirement; stale wheel
         *  actions compare and drop. */
        std::uint32_t gen = 0;
    };

    /** One deferred protocol step, on the wheel or the far list. */
    struct Action
    {
        enum Kind : std::uint8_t
        {
            HeaderArrive,  //!< slot+gen
            HackArrive,    //!< slot+gen
            FinalFlit,     //!< slot+gen
            TeardownStep,  //!< slot+gen
            TryInject,     //!< slot = node id, gen unused
        };
        Kind kind;
        std::uint32_t slot;
        std::uint32_t gen;
        sim::Tick due;
    };

    /** One make-step record awaiting its break step.  Matched by
     *  bus *id* (unique per life), exactly like the event engine's
     *  MoveRecord, so slot recycling cannot confuse a break.  The
     *  hop index is fixed for the bus's life (gap minus source
     *  gap), so the break reuses the make's. */
    struct MoveRecord
    {
        std::uint32_t slot;
        std::uint32_t hopIndex;
        VirtualBusId bus;
        GapId gap;
        Level fromLevel;
        Level toLevel;
    };

    static constexpr sim::Tick kNever = ~sim::Tick{0};

    // --- agenda (wheel + far list + cycle clock) ---
    void scheduleAction(sim::Tick delay, Action::Kind kind,
                        std::uint32_t slot, std::uint32_t gen);
    void ensureWake(sim::Tick due);
    void onWake();
    void processTick(sim::Tick now);
    void dispatch(const Action &a);
    sim::Tick nextDue() const;
    void rearm();

    // --- header and stream steps (the rest is RingEngine's) ---
    void headerArrive(std::uint32_t slot);
    void tryAdvance(std::uint32_t slot);
    void hackArriveAtSource(std::uint32_t slot);
    void finalFlitArrive(std::uint32_t slot);

    // --- RingEngine hooks ---
    void scheduleInject(net::NodeId node, sim::Tick delay) override;
    void scheduleTeardownStep(BusKey key, bool started) override;
    void launchHeader(BusRecord &bus) override;
    BusRecord &openBus(VirtualBusId id) override;
    void retireBus(BusKey key) override;
    const BusRecord &busRecord(BusKey key) const override;
    BusRecord *carrierOf(net::MessageId id) override;
    /** The wheel cannot lose actions and closed-form streaming is
     *  one pre-scheduled action: no bus ever goes silent. */
    bool canStall(const BusRecord &) const override { return false; }
    /** A fault change may wake the sleeping cycle clock. */
    void afterFaultChange() override;

    // --- compaction cycle ---
    void armCycle();
    void makeStep(sim::Tick now);
    void breakStep(sim::Tick now);
    void exitQuietCycles(sim::Tick now);

    // --- helpers ---
    std::uint32_t allocSlot();
    void retireSlot(std::uint32_t slot);
    net::NodeId effectiveDst(const KBus &bus) const;
    std::uint32_t pathLength(const KBus &bus) const;
    std::size_t hopIndexAt(const KBus &bus, GapId gap) const;

    std::vector<KBus> pool_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint64_t liveBuses_ = 0;

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

    TestMutation mutation_ = TestMutation::None;
};

} // namespace core
} // namespace rmb
