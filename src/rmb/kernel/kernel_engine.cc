#include "rmb/kernel/kernel_engine.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "obs/prof.hh"
#include "sim/simulator.hh"

namespace rmb {
namespace core {

namespace {

/**
 * Force the engine tag before validating: a config handed straight
 * to this constructor must pass the *kernel* compatibility checks
 * regardless of what its engine field said.
 */
RmbConfig
kernelConfig(RmbConfig config)
{
    config.engine = EngineKind::Kernel;
    return config;
}

/** Wheel span: past every common delay (header and ack walks, one
 *  cycle period, capped backoff).  Rarer, longer ones - streams,
 *  MTTR repairs - wait on the far list. */
sim::Tick
wheelSpan(const RmbConfig &config, sim::Tick period)
{
    const sim::Tick ack_walk = config.ackHopDelay * config.numNodes;
    sim::Tick span = 256;
    span = std::max(span, 2 * config.headerHopDelay);
    span = std::max(span, 2 * ack_walk);
    span = std::max(span, 2 * period);
    span = std::max(span, config.retryBackoffMax + 1);
    span = std::max(span, config.retryBackoffCap + 1);
    return std::bit_ceil(std::min(span, sim::Tick{1} << 16));
}

} // namespace

CycleKernelEngine::CycleKernelEngine(sim::Simulator &simulator,
                                     const RmbConfig &config)
    : RingEngine(simulator, "RMB(kernel)", kernelConfig(config),
                 nullptr, nullptr),
      // One fixed global compaction period, drawn from the same
      // range the event engine draws each INC's period from.  The
      // kernel's cycle is synchronous (skew 0): Lemma 1 bounds the
      // event engine's skew to <= 1, and the zero-skew schedule is
      // one of the legal executions of the same pure rules.
      period_(static_cast<sim::Tick>(rng_.uniformRange(
          config_.cyclePeriodMin, config_.cyclePeriodMax))),
      wheel_(wheelSpan(config_, period_))
{
    if (config_.numNodes % 2 != 0) {
        warn("odd node count: the odd/even gap parity of section"
             " 2.4 is imperfect on an odd ring (two adjacent gaps"
             " share a parity); the synchronous kernel cycle keeps"
             " the protocol correct regardless");
    }

    startFaultSchedule();
}

CycleKernelEngine::~CycleKernelEngine() = default;

// ----------------------------------------------------------------
// Agenda: timing wheel, far list, wake management
// ----------------------------------------------------------------

void
CycleKernelEngine::scheduleAction(sim::Tick delay, std::uint64_t target,
                                  StepKind kind, bool inject)
{
    const sim::Tick now = simulator().now();
    const sim::Tick due = now + delay;
    const Action a{target, due, kind, inject};
    if (delay < wheel_.span()) {
        wheel_.push(due, a);
    } else {
        farActions_.push_back(a);
        farMinDue_ = std::min(farMinDue_, due);
    }
    if (processing_ == kNever)
        ensureWake(due);
}

void
CycleKernelEngine::ensureWake(sim::Tick due)
{
    const sim::Tick now = simulator().now();
    // An armed wake at or before the new due tick already covers it
    // (it will re-arm when it fires).
    if (armedAt_ != kNever && armedAt_ > now && armedAt_ <= due)
        return;
    simulator().schedule(due - now, [this] { onWake(); });
    armedAt_ = due;
}

void
CycleKernelEngine::onWake()
{
    // One scope per wake covers the whole self-clocked wheel-drain
    // loop: per-tick scopes would dominate the cost they measure.
    // Sampled: a sustained stream wakes tens of thousands of times
    // per millisecond-scale run, and the TSC pair per wake alone
    // costs measurable percent against the bench_microperf overhead
    // gate.
    RMB_PROF_SCOPE_SAMPLED("kernel.wheel");
    processTick(simulator().now());
    // Self-clocked fast path: while the simulator has nothing due
    // before our next action tick, step the clock ourselves instead
    // of bouncing every tick through the event queue.  Outcomes are
    // identical — the same actions run at the same ticks — but a
    // kernel-only stretch costs no event-queue operations.
    sim::Tick due;
    while ((due = nextDue()) != kNever && simulator().advanceIfIdle(due))
        processTick(due);
    rearm();
}

void
CycleKernelEngine::rearm()
{
    const sim::Tick due = nextDue();
    if (due == kNever) {
        armedAt_ = kNever;
        return;
    }
    const sim::Tick now = simulator().now();
    if (armedAt_ != kNever && armedAt_ > now && armedAt_ <= due)
        return; // a live (possibly zombie) wake covers it
    simulator().schedule(due - now, [this] { onWake(); });
    armedAt_ = due;
}

sim::Tick
CycleKernelEngine::nextDue() const
{
    // Known dues outside the wheel bound its query (a hit past them
    // cannot be the minimum), which starts at the next tick.
    sim::Tick best = farMinDue_;
    if (cycleArmed_ && !cycleQuiet_)
        best = std::min(best, nextMakeAt_);
    best = std::min(best, nextBreakAt_);
    if (wheel_.empty())
        return best;
    const sim::Tick now = simulator().now();
    return std::min(wheel_.first(now + 1, best - 1), best);
}

void
CycleKernelEngine::processTick(sim::Tick now)
{
    processing_ = now;

    // Pull far actions into the wheel once their minimum is in
    // range, behind the near actions already on their tick; the scan
    // re-establishes the minimum of what stays.
    if (farMinDue_ != kNever && farMinDue_ - now < wheel_.span()) {
        std::size_t keep = 0;
        sim::Tick new_min = kNever;
        for (const Action &a : farActions_) {
            if (a.due - now < wheel_.span()) {
                wheel_.push(a.due, a);
            } else {
                farActions_[keep++] = a;
                new_min = std::min(new_min, a.due);
            }
        }
        farActions_.resize(keep);
        farMinDue_ = new_min;
    }

    // Drain this tick's FIFO, same-tick pushes included.  Each action
    // is pushed less than a span ahead and every due tick is
    // processed, so the list holds this tick's actions only.
    while (wheel_.has(now)) {
        const Action a = wheel_.pop(now);
        rmb_assert(a.due == now, "kernel action due at tick ", a.due,
                   " found in the wheel at tick ", now);
        if (a.inject)
            tryInject(static_cast<net::NodeId>(a.target));
        else
            runStep(a.kind, a.target);
    }

    // A dispatched action may have changed the grid while the
    // cycle clock slept; settle the slept cycles before the make
    // check so a make due this very tick rescans.
    if (cycleQuiet_ && segments_.epoch() != quietEpoch_)
        exitQuietCycles(now);

    // Cycle steps after the tick's protocol actions: break (armed
    // half a period before) strictly precedes the next make.
    if (nextBreakAt_ == now)
        breakStep();
    if (cycleArmed_ && nextMakeAt_ == now)
        makeStep(now);

    processing_ = kNever;
    // Full verification audits once per processed tick (the kernel's
    // observable unit), not per mutation like the event engine - the
    // intermediate states inside a tick are the same ones the event
    // engine reaches between events.
    auditIfFull();
}

// ----------------------------------------------------------------
// RingEngine hooks
// ----------------------------------------------------------------

void
CycleKernelEngine::scheduleInject(net::NodeId node, sim::Tick delay)
{
    scheduleAction(delay, node, StepKind::Header, true);
}

void
CycleKernelEngine::scheduleStep(StepKind kind, sim::Tick delay,
                                VirtualBus &bus)
{
    // A fresh teardown pins every cell the bus holds (Figure 7 moves
    // no hop of a tearing-down bus) until the walk or a break
    // releases it.
    if (kind == StepKind::Teardown && bus.hopsFreed == 0) {
        for (const Hop &hop : bus.hops) {
            segments_.pin(hop.gap, hop.level);
            if (hop.inMove())
                segments_.pin(hop.gap, hop.dualLevel);
        }
    }
    scheduleAction(delay, handleOf(bus), kind, false);
    // A bus's first header step follows its injection: the ring is
    // busy, so the cycle clock runs.
    if (kind == StepKind::Header && bus.hops.size() == 1)
        armCycle();
}

void
CycleKernelEngine::afterFaultChange()
{
    if (cycleQuiet_)
        exitQuietCycles(simulator().now());
    auditIfFull();
}

// ----------------------------------------------------------------
// Compaction cycle
// ----------------------------------------------------------------

void
CycleKernelEngine::armCycle()
{
    if (!config_.enableCompaction || cycleArmed_)
        return;
    cycleArmed_ = true;
    cycleQuiet_ = false;
    nextMakeAt_ = simulator().now() + period_;
    if (processing_ == kNever)
        ensureWake(nextMakeAt_);
}

void
CycleKernelEngine::exitQuietCycles(sim::Tick now)
{
    cycleQuiet_ = false;
    if (!cycleArmed_)
        return;
    if (nextMakeAt_ < now) {
        // Every make slept through ran against the unchanged quiet
        // epoch, i.e. was a proven no-op; account for the cycles at
        // their cadence and resume at the first make >= now.
        const std::uint64_t j = (now - 1 - nextMakeAt_) / period_ + 1;
        cycleIndex_ += j;
        rmbStats_.cycleFlips += j * config_.numNodes;
        nextMakeAt_ += j * period_;
    }
    if (processing_ == kNever)
        ensureWake(nextMakeAt_);
}

void
CycleKernelEngine::makeStep(sim::Tick now)
{
    rmb_assert(moveRecords_.empty(),
               "make step with pending break records");
    if (segments_.occupiedCount() == 0) {
        // Idle ring: pause the cycle clock; the next injection
        // re-arms it.  (Compaction over an empty grid is a no-op,
        // so skipping cycles is outcome-neutral.)
        cycleArmed_ = false;
        nextMakeAt_ = kNever;
        return;
    }

    const int c = static_cast<int>(cycleIndex_ % 2);
    if (!tracing() && noMoveEpoch_[c] == segments_.epoch()) {
        // The grid is bit-identical to a same-parity cycle that
        // found nothing to move, so this pass would too.  Keep the
        // cycle accounting and skip the scan.  (Disabled while
        // tracing so per-cycle CycleFlip events stay complete.)
        ++cycleIndex_;
        rmbStats_.cycleFlips += config_.numNodes;
        nextMakeAt_ = now + period_;
        if (noMoveEpoch_[0] == segments_.epoch() &&
            noMoveEpoch_[1] == segments_.epoch()) {
            cycleQuiet_ = true;
            quietEpoch_ = segments_.epoch();
        }
        return;
    }
    // Scope only the real scan: the idle-ring and unchanged-epoch
    // exits above run in a few instructions each and fire for most
    // cycles of a sustained stream, so a scope there would cost more
    // than the path it measures (the bench_microperf overhead gate
    // enforces this).
    RMB_PROF_SCOPE_SAMPLED("kernel.make_pass");
    const auto k = static_cast<Level>(config_.numBuses);
    const std::uint32_t words = segments_.wordsPerLevel();
    for (Level l = 1; l < k; ++l) {
        if (segments_.occupiedAt(l) == 0)
            continue; // no cell to move down
        // Gap g considers its levels of parity (g + c) mod 2 this
        // cycle (the per-INC FSM schedule), so level l is in play
        // exactly at gaps of parity (l + c) mod 2.
        const int gap_parity = static_cast<int>(
            (static_cast<std::uint64_t>(l) + c) % 2);
        // Row pointers stay valid across the moves below: the grid
        // never resizes.
        const std::uint64_t *occ = segments_.occRow(l);
        const std::uint64_t *pinned = segments_.pinnedRow(l);
        const std::uint64_t *parity = segments_.parityRow(gap_parity);
        const std::uint64_t *occ_below = segments_.occRow(l - 1);
        const std::uint64_t *faulty_below = segments_.faultyRow(l - 1);
        for (std::uint32_t w = 0; w < words; ++w) {
            std::uint64_t cand = occ[w] & parity[w] & ~pinned[w] &
                                 ~(occ_below[w] | faulty_below[w]);
            while (cand != 0) {
                const int b = std::countr_zero(cand);
                cand &= cand - 1;
                const GapId g = w * 64 +
                                static_cast<std::uint32_t>(b);
                makeMove(g, l, moveRecords_);
            }
        }
    }

    if (moveRecords_.empty()) {
        noMoveEpoch_[c] = segments_.epoch();
        if (!tracing() && noMoveEpoch_[1 - c] == segments_.epoch()) {
            cycleQuiet_ = true;
            quietEpoch_ = segments_.epoch();
        }
    }
    ++cycleIndex_;
    // Every INC flips once per global cycle; skew stays 0.
    rmbStats_.cycleFlips += config_.numNodes;
    if (tracing()) {
        for (net::NodeId i = 0; i < config_.numNodes; ++i) {
            obs::TraceEvent e;
            e.kind = obs::EventKind::CycleFlip;
            e.at = now;
            e.node = i;
            e.gap = i;
            e.a = cycleIndex_;
            emitTrace(e);
        }
    }
    nextBreakAt_ =
        moveRecords_.empty() ? kNever : now + period_ / 2;
    nextMakeAt_ = now + period_;
}

void
CycleKernelEngine::breakStep()
{
    RMB_PROF_SCOPE_SAMPLED("kernel.compaction_break");
    for (const MoveRecord &r : moveRecords_)
        breakMove(r);
    moveRecords_.clear();
    nextBreakAt_ = kNever;
}

// ----------------------------------------------------------------
// Invariant auditing
// ----------------------------------------------------------------

void
CycleKernelEngine::auditInvariants() const
{
    auditSegments();
    // The make pass skips pinned cells unseen, so a stale pin would
    // silently drop moves: pinned exactly when held by a tearing-down
    // bus.  (The kernel never blocks: validate() refuses Wait.)
    const auto k = static_cast<Level>(config_.numBuses);
    for (GapId g = 0; g < config_.numNodes; ++g) {
        for (Level l = 0; l < k; ++l) {
            const BusKey key = segments_.owner(g, l);
            const bool tearing_down =
                key != kNoKey && isTeardown(busAt(key).state);
            rmb_assert(segments_.pinned(g, l) == tearing_down,
                       "pin plane out of sync at (", g, ",", l,
                       "): pinned ", segments_.pinned(g, l),
                       ", held by a tearing-down bus ", tearing_down);
        }
    }
}

} // namespace core
} // namespace rmb
