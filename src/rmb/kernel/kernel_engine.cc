#include "rmb/kernel/kernel_engine.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "obs/prof.hh"
#include "rmb/compaction_rules.hh"
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
                 nullptr),
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
CycleKernelEngine::scheduleAction(sim::Tick delay,
                                  Action::Kind kind,
                                  std::uint32_t slot,
                                  std::uint32_t gen)
{
    const sim::Tick now = simulator().now();
    const sim::Tick due = now + delay;
    const Action a{kind, slot, gen, due};
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
        dispatch(a);
    }

    // A dispatched action may have changed the grid while the
    // cycle clock slept; settle the slept cycles before the make
    // check so a make due this very tick rescans.
    if (cycleQuiet_ && segments_.epoch() != quietEpoch_)
        exitQuietCycles(now);

    // Cycle steps after the tick's protocol actions: break (armed
    // half a period before) strictly precedes the next make.
    if (nextBreakAt_ == now)
        breakStep(now);
    if (cycleArmed_ && nextMakeAt_ == now)
        makeStep(now);

    processing_ = kNever;
    // Full verification audits once per processed tick (the kernel's
    // observable unit), not per mutation like the event engine - the
    // intermediate states inside a tick are the same ones the event
    // engine reaches between events.
    auditIfFull();
}

void
CycleKernelEngine::dispatch(const Action &a)
{
    if (a.kind == Action::TryInject) {
        tryInject(a.slot);
        return;
    }
    KBus &bus = pool_[a.slot];
    if (!bus.live || bus.gen != a.gen)
        return; // the bus this action was aimed at is gone
    switch (a.kind) {
    case Action::HeaderArrive:
        headerArrive(a.slot);
        break;
    case Action::HackArrive:
        hackArriveAtSource(a.slot);
        break;
    case Action::FinalFlit:
        finalFlitArrive(a.slot);
        break;
    case Action::TeardownStep:
        teardownStep(bus);
        break;
    case Action::TryInject:
        break; // handled above
    }
}

// ----------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------

std::uint32_t
CycleKernelEngine::allocSlot()
{
    if (!freeSlots_.empty()) {
        const std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        return slot;
    }
    pool_.emplace_back();
    pool_.back().key = pool_.size() - 1;
    return static_cast<std::uint32_t>(pool_.back().key);
}

void
CycleKernelEngine::retireSlot(std::uint32_t slot)
{
    KBus &bus = pool_[slot];
    bus.live = false;
    ++bus.gen;
    bus.hops.clear(); // keeps capacity for the next life
    freeSlots_.push_back(slot);
}

net::NodeId
CycleKernelEngine::effectiveDst(const KBus &bus) const
{
    if (mutation_ != TestMutation::ShortCircuit)
        return bus.dst;
    const std::uint32_t n = config_.numNodes;
    const std::uint32_t dist = (bus.dst + n - bus.src) % n;
    if (dist <= 1)
        return bus.dst; // a one-hop path cannot be shortened
    return (bus.dst + n - 1) % n;
}

std::uint32_t
CycleKernelEngine::pathLength(const KBus &bus) const
{
    const std::uint32_t n = config_.numNodes;
    return (effectiveDst(bus) + n - bus.src) % n;
}

std::size_t
CycleKernelEngine::hopIndexAt(const KBus &bus, GapId gap) const
{
    // (gap - srcGap) mod N with both in [0, N): one conditional add
    // instead of a division on the make pass's per-candidate path.
    const GapId src = bus.srcGap();
    return static_cast<std::size_t>(
        gap >= src ? gap - src : gap + config_.numNodes - src);
}

// ----------------------------------------------------------------
// RingEngine hooks
// ----------------------------------------------------------------

void
CycleKernelEngine::scheduleInject(net::NodeId node, sim::Tick delay)
{
    scheduleAction(delay, Action::TryInject, node, 0);
}

void
CycleKernelEngine::scheduleTeardownStep(BusKey key, bool started)
{
    KBus &bus = pool_[key];
    // A fresh teardown invalidates every in-flight header/Hack/FF
    // action of this life; the walk runs on the new generation.  It
    // also pins every cell the bus holds (Figure 7 moves no hop of
    // a tearing-down bus) until the walk or a break releases it.
    if (started) {
        ++bus.gen;
        for (const Hop &hop : bus.hops) {
            segments_.pin(hop.gap, hop.level);
            if (hop.inMove())
                segments_.pin(hop.gap, hop.dualLevel);
        }
    }
    scheduleAction(config_.ackHopDelay, Action::TeardownStep,
                   static_cast<std::uint32_t>(key), bus.gen);
}

void
CycleKernelEngine::launchHeader(BusRecord &bus)
{
    scheduleAction(config_.headerHopDelay, Action::HeaderArrive,
                   static_cast<std::uint32_t>(bus.key),
                   static_cast<const KBus &>(bus).gen);
    armCycle();
}

BusRecord &
CycleKernelEngine::openBus(VirtualBusId)
{
    KBus &bus = pool_[allocSlot()];
    bus.live = true;
    ++liveBuses_;
    return bus;
}

void
CycleKernelEngine::retireBus(BusKey key)
{
    --liveBuses_;
    retireSlot(static_cast<std::uint32_t>(key));
}

const BusRecord &
CycleKernelEngine::busRecord(BusKey key) const
{
    rmb_assert(key < pool_.size() && pool_[key].live,
               "no live bus in slot ", key);
    return pool_[key];
}

BusRecord *
CycleKernelEngine::carrierOf(net::MessageId id)
{
    for (KBus &b : pool_) {
        if (b.live && b.message == id)
            return &b;
    }
    return nullptr;
}

void
CycleKernelEngine::afterFaultChange()
{
    if (cycleQuiet_)
        exitQuietCycles(simulator().now());
    auditIfFull();
}

// ----------------------------------------------------------------
// Header and stream steps
// ----------------------------------------------------------------

void
CycleKernelEngine::headerArrive(std::uint32_t slot)
{
    KBus &bus = pool_[slot];
    rmb_assert(bus.state == BusState::Advancing,
               "header arrival on a non-advancing bus");
    const net::NodeId here = bus.headNode;
    if (here == effectiveDst(bus)) {
        if (pes_[bus.dst].receivePortFree(config_.receivePorts)) {
            const sim::Tick hack =
                acceptAtDestination(bus, pathLength(bus));
            // Leaving Advancing frees the head hop to move (Figure 7
            // pins an advancing head); this is the one movability
            // change with no plane mutation, so note it for the
            // no-move make-skip.
            segments_.bumpEpoch();
            scheduleAction(hack, Action::HackArrive, slot, bus.gen);
        } else {
            noteNack(messageRef(bus.message));
            startTeardown(bus, BusState::NackTeardown);
        }
        return;
    }
    tryAdvance(slot);
}

void
CycleKernelEngine::tryAdvance(std::uint32_t slot)
{
    KBus &bus = pool_[slot];
    rmb_assert(bus.state == BusState::Advancing,
               "tryAdvance on a bus in state ",
               static_cast<int>(bus.state));
    const net::NodeId here = bus.headNode;
    const GapId gap = here;
    const Level chosen =
        chooseOutputLevel(bus.hops.back(), gap, effectiveDst(bus));
    if (chosen != kNoLevel) {
        segments_.occupy(gap, chosen, slot, simulator().now());
        bus.hops.push_back(Hop{gap, chosen, kNoLevel, 0});
        bus.headNode = (here + 1) % config_.numNodes;
        if (tracing())
            emitTrace(busEvent(obs::EventKind::HeaderHop, bus,
                               here, gap, chosen));
        scheduleAction(config_.headerHopDelay,
                       Action::HeaderArrive, slot, bus.gen);
        return;
    }

    // No reachable free segment: the kernel only models NackRetry
    // (validate() refuses Wait), so abort and retry from the source.
    ++rmbStats_.blockedAborts;
    if (tracing()) {
        obs::TraceEvent e =
            busEvent(obs::EventKind::Nack, bus, here, gap);
        e.a = obs::kNackNoSegment;
        emitTrace(e);
    }
    startTeardown(bus, BusState::NackTeardown);
}

void
CycleKernelEngine::hackArriveAtSource(std::uint32_t slot)
{
    KBus &bus = pool_[slot];
    rmb_assert(bus.state == BusState::AwaitHack,
               "Hack arrived on a bus in state ",
               static_cast<int>(bus.state));
    // Closed-form streaming only: validate() refuses detailedFlits
    // for this engine.
    scheduleAction(establish(bus), Action::FinalFlit, slot, bus.gen);
}

void
CycleKernelEngine::finalFlitArrive(std::uint32_t slot)
{
    KBus &bus = pool_[slot];
    rmb_assert(bus.state == BusState::Streaming,
               "FF arrived on a non-streaming bus");
    deliver(bus);
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
    const auto is_free = [this](GapId g, Level l) {
        return segments_.isFree(g, l);
    };
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
                const BusKey key = segments_.owner(g, l);
                rmb_assert(key != kNoKey, "occupancy bit with no owner");
                const auto slot = static_cast<std::uint32_t>(key);
                KBus &bus = pool_[slot];
                const std::size_t idx = hopIndexAt(bus, g);
                rmb_assert(idx < bus.hops.size(),
                           "unpinned cell beyond its bus's hops");
                Hop &hop = bus.hops[idx];
                rmb_assert(hop.gap == g,
                           "hop/gap bookkeeping mismatch");
                if (hop.level != l)
                    continue; // l is a mid-move dual target
                if (!hopMovableRule(bus, idx, is_free))
                    continue;
                segments_.occupy(g, l - 1, slot, now);
                hop.dualLevel = l - 1;
                ++hop.moveSeq;
                if (tracing()) {
                    obs::TraceEvent e =
                        busEvent(obs::EventKind::CompactionMake,
                                 bus, g, g, l);
                    e.a = static_cast<std::uint64_t>(l - 1);
                    e.b = hop.moveSeq;
                    emitTrace(e);
                }
                moveRecords_.push_back(
                    MoveRecord{slot, static_cast<std::uint32_t>(idx),
                               bus.id, g, l, l - 1});
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
CycleKernelEngine::breakStep(sim::Tick)
{
    RMB_PROF_SCOPE_SAMPLED("kernel.compaction_break");
    for (const MoveRecord &r : moveRecords_) {
        KBus &bus = pool_[r.slot];
        if (!bus.live || bus.id != r.bus)
            continue; // fully torn down since the make step
        if (r.hopIndex >= bus.hops.size())
            continue; // hop already freed by a travelling ack
        Hop &hop = bus.hops[r.hopIndex];
        if (!hop.inMove() || hop.dualLevel != r.toLevel ||
            hop.level != r.fromLevel) {
            continue; // stale record (move cancelled by a sever)
        }
        if (segments_.faulted(r.gap, r.toLevel))
            continue; // target faulted between make and break
        hop.level = r.toLevel;
        hop.dualLevel = kNoLevel;
        ++rmbStats_.compactionMoves;
        if (tracing()) {
            obs::TraceEvent e =
                busEvent(obs::EventKind::CompactionBreak, bus,
                         r.gap, r.gap, r.toLevel);
            e.a = static_cast<std::uint64_t>(r.fromLevel);
            emitTrace(e);
        }
        releaseSegment(bus, r.gap, r.fromLevel,
                       obs::kFreeCompaction);
    }
    moveRecords_.clear();
    nextBreakAt_ = kNever;
}

std::uint64_t
CycleKernelEngine::progressStamp(net::MessageId id) const
{
    std::uint64_t h = Engine::progressStamp(id);
    const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
    };
    for (const KBus &b : pool_) {
        if (!b.live || b.message != id)
            continue;
        mix(b.id);
        mix(static_cast<std::uint64_t>(b.state));
        mix(b.gen);
        mix(b.hops.size());
        mix(b.headNode);
    }
    return h;
}

// ----------------------------------------------------------------
// Invariant auditing
// ----------------------------------------------------------------

void
CycleKernelEngine::auditInvariants() const
{
    std::uint64_t claimed = 0;
    std::uint64_t live_seen = 0;
    for (const KBus &bus : pool_) {
        if (!bus.live)
            continue;
        ++live_seen;
        claimed += auditHops(bus, pathLength(bus));
        rmb_assert(bus.state != BusState::Blocked,
                   "kernel engine cannot produce Blocked buses");
    }
    rmb_assert(live_seen == liveBuses_, "pool shows ", live_seen,
               " live buses but the census counts ", liveBuses_);
    const auto k = static_cast<Level>(config_.numBuses);
    std::vector<std::uint32_t> held_at(config_.numBuses, 0);
    for (GapId g = 0; g < config_.numNodes; ++g) {
        for (Level l = 0; l < k; ++l) {
            const BusKey key = segments_.owner(g, l);
            const bool held = key != kNoKey;
            held_at[static_cast<std::size_t>(l)] += held ? 1 : 0;
            rmb_assert(segments_.occupied(g, l) == held,
                       "occupancy plane out of sync with the owner"
                       " grid at (", g, ",", l, ")");
            // The make pass skips pinned cells unseen, so a stale pin
            // would silently drop moves: pinned exactly when held by
            // a tearing-down bus.
            const bool tearing_down =
                held && isTeardown(pool_[key].state);
            rmb_assert(segments_.pinned(g, l) == tearing_down,
                       "pin plane out of sync at (", g, ",", l,
                       "): pinned ", segments_.pinned(g, l),
                       ", held by a tearing-down bus ", tearing_down);
        }
    }
    for (Level l = 0; l < k; ++l) {
        rmb_assert(segments_.occupiedAt(l) ==
                       held_at[static_cast<std::size_t>(l)],
                   "level ", l, " counts ", segments_.occupiedAt(l),
                   " held cells but the owner grid shows ",
                   held_at[static_cast<std::size_t>(l)]);
    }
    auditSegments(claimed);
}

} // namespace core
} // namespace rmb
