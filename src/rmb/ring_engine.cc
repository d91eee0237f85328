#include "rmb/ring_engine.hh"

#include <algorithm>
#include <optional>

#include "common/logging.hh"
#include "obs/prof.hh"
#include "rmb/status_register.hh"

namespace rmb {
namespace core {

RingEngine::RingEngine(sim::Simulator &simulator, std::string name,
                       const RmbConfig &config, const char *inject_scope,
                       const char *advance_scope)
    : Engine(simulator, std::move(name), config),
      segments_(config_.numNodes, config_.numBuses), rng_(config_.seed),
      pes_(config_.numNodes), injectScope_(inject_scope),
      advanceScope_(advance_scope)
{
}

bool
RingEngine::freeSegment(GapId gap, Level level, BusKey key)
{
    segments_.release(gap, level, key, simulator().now());
    return !segments_.faulted(gap, level);
}

VirtualBus &
RingEngine::openBus()
{
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        rmb_assert(pool_.size() < (BusKey{1} << 32),
                   "bus pool outgrew 32-bit slots");
        slot = static_cast<std::uint32_t>(pool_.size());
        pool_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    // A blank record: only the generation and the hops' capacity
    // carry over from the slot's last life.
    VirtualBus &bus = pool_[slot];
    std::vector<Hop> hops = std::move(bus.hops);
    const std::uint32_t gen = bus.gen;
    bus = VirtualBus{};
    bus.hops = std::move(hops);
    bus.key = slot;
    bus.live = true;
    bus.gen = gen;
    return bus;
}

void
RingEngine::retireBus(VirtualBus &bus)
{
    bus.live = false;
    ++bus.gen;
    bus.hops.clear(); // keeps capacity for the next life
    freeSlots_.push_back(static_cast<std::uint32_t>(bus.key));
}

VirtualBus *
RingEngine::carrierOf(net::MessageId id)
{
    for (VirtualBus &b : pool_) {
        if (b.live && b.message == id)
            return &b;
    }
    return nullptr;
}

const VirtualBus *
RingEngine::bus(VirtualBusId id) const
{
    rmb_assert(id != kNoBus && id < nextBusId_,
               "virtual bus id ", id, " was never allocated",
               " (ids run 1..", nextBusId_ - 1, ")");
    for (const VirtualBus &b : pool_) {
        if (b.live && b.id == id)
            return &b;
    }
    return nullptr;
}

std::vector<VirtualBusId>
RingEngine::liveBusIds() const
{
    std::vector<VirtualBusId> ids;
    for (const VirtualBus &b : pool_) {
        if (b.live)
            ids.push_back(b.id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

std::uint64_t
RingEngine::progressStamp(net::MessageId id) const
{
    std::uint64_t h = Engine::progressStamp(id);
    const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
    };
    // Fold in the carrying bus (live or tearing down): every protocol
    // step changes its state, epoch or extent, so a frozen stamp
    // means lost events.
    for (const VirtualBus &b : pool_) {
        if (!b.live || b.message != id)
            continue;
        mix(b.id);
        mix(static_cast<std::uint64_t>(b.state));
        mix(b.epoch);
        mix(b.hops.size());
    }
    return h;
}

obs::TraceEvent
RingEngine::busEvent(obs::EventKind kind, const VirtualBus &bus,
                     net::NodeId node, GapId gap, Level level) const
{
    obs::TraceEvent e;
    e.kind = kind;
    e.at = simulator().now();
    e.message = bus.message;
    e.bus = bus.id;
    e.node = node;
    e.gap = gap;
    e.level = level;
    return e;
}

net::MessageId
RingEngine::send(net::NodeId src, net::NodeId dst,
                 std::uint32_t payload_flits)
{
    net::Message &m = createMessage(src, dst, payload_flits);
    pes_[src].sendQueue.push_back(m.id);
    const net::MessageId id = m.id;
    scheduleInject(src, 0);
    superviseActivity();
    return id;
}

void
RingEngine::tryInject(net::NodeId node)
{
    std::optional<obs::prof::ProfScope> scope;
    if (injectScope_)
        scope.emplace(injectScope_, 15);
    Pe &pe = pes_[node];
    // Write off queued traffic that permanent damage has made
    // undeliverable before spending ports or backoff on it.
    while (!pe.sendQueue.empty()) {
        net::Message &m = messageRef(pe.sendQueue.front());
        if (!routeDead(m.src, m.dst))
            break;
        pe.sendQueue.pop_front();
        writeOff(m, obs::kDeadUnreachable);
    }
    if (!pe.sendPortFree(config_.sendPorts) || pe.sendQueue.empty())
        return;
    if (simulator().now() < pe.backoffUntil)
        return; // the retry's injection is already scheduled

    // Section 2.3: a new request may only be inserted at the top
    // output port; if it is busy the header flit stays buffered.
    const Level top = topLevel();
    const GapId gap = node;
    if (!segments_.isFree(gap, top))
        return;

    const net::MessageId mid = pe.sendQueue.front();
    pe.sendQueue.pop_front();
    pe.activeSends.push_back(mid);

    net::Message &m = messageRef(mid);
    if (m.state == net::MessageState::Queued)
        noteFirstAttempt(m);
    else
        noteRetry(m);

    VirtualBus &bus = openBus();
    bus.id = nextBusId_++;
    bus.message = mid;
    bus.src = m.src;
    bus.dst = m.dst;
    bus.headNode = (node + 1) % config_.numNodes;
    bus.injectedAt = simulator().now();

    segments_.occupy(gap, top, bus.key, simulator().now());
    bus.hops.push_back(Hop{gap, top, kNoLevel, 0});
    rmbStats_.liveBuses.adjust(simulator().now(), +1);
    if (tracing())
        emitTrace(busEvent(obs::EventKind::HeaderHop, bus, node, gap,
                           top));
    scheduleStep(StepKind::Header, config_.headerHopDelay, bus);
    afterStep();
}

// ----------------------------------------------------------------
// The circuit steps (section 2.3, Figure 6)
// ----------------------------------------------------------------

net::NodeId
RingEngine::effectiveDst(const VirtualBus &bus) const
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
RingEngine::pathLength(const VirtualBus &bus) const
{
    const std::uint32_t n = config_.numNodes;
    return (effectiveDst(bus) + n - bus.src) % n;
}

void
RingEngine::runStep(StepKind kind, BusHandle h)
{
    VirtualBus *bus = liveBus(h);
    if (!bus) {
        // Nothing severs a tearing-down bus, so only its last step
        // retires it and no walk step goes stale.
        rmb_assert(kind != StepKind::Teardown,
                   "teardown step of a retired bus");
        return; // the bus retired or was severed since
    }
    switch (kind) {
    case StepKind::Header:
        headerArrive(*bus);
        break;
    case StepKind::Hack:
        establish(*bus);
        break;
    case StepKind::FinalFlit:
        deliver(*bus);
        break;
    case StepKind::Teardown:
        teardownStep(*bus);
        break;
    }
}

void
RingEngine::headerArrive(VirtualBus &bus)
{
    rmb_assert(bus.state == BusState::Advancing,
               "header arrival on a non-advancing bus");
    if (bus.headNode != effectiveDst(bus)) {
        tryAdvance(bus);
        return;
    }
    Pe &pe = pes_[bus.dst];
    if (!pe.receivePortFree(config_.receivePorts)) {
        // Destination busy: the Nack travels back tearing the virtual
        // bus down; the source retries later.
        noteNack(messageRef(bus.message));
        startTeardown(bus, BusState::NackTeardown);
        return;
    }
    pe.activeReceives.push_back(bus.message);
    bus.state = BusState::AwaitHack;
    ++bus.epoch;
    const std::uint32_t path = pathLength(bus);
    rmb_assert(bus.hops.size() == path, "accepted bus spans ",
               bus.hops.size(), " gaps, expected ", path);
    // Leaving Advancing frees the head hop to move (Figure 7 pins an
    // advancing head); this is the one movability change with no
    // plane mutation, so note it for the kernel's no-move make skip.
    segments_.bumpEpoch();
    scheduleStep(StepKind::Hack,
                 static_cast<sim::Tick>(path) * config_.ackHopDelay, bus);
}

void
RingEngine::tryAdvance(VirtualBus &bus)
{
    std::optional<obs::prof::ProfScope> scope;
    if (advanceScope_)
        scope.emplace(advanceScope_, 15);
    rmb_assert(bus.state == BusState::Advancing ||
                   bus.state == BusState::Blocked,
               "tryAdvance on a bus in state ",
               static_cast<int>(bus.state));
    const net::NodeId here = bus.headNode;
    const GapId gap = here;
    const Level chosen =
        chooseOutputLevel(bus.hops.back(), gap, effectiveDst(bus));
    if (chosen != kNoLevel) {
        if (bus.state == BusState::Blocked) {
            unblock(bus);
            bus.state = BusState::Advancing;
            if (tracing())
                emitTrace(busEvent(obs::EventKind::Unblock, bus, here,
                                   gap));
        }
        segments_.occupy(gap, chosen, bus.key, simulator().now());
        bus.hops.push_back(Hop{gap, chosen, kNoLevel, 0});
        bus.headNode = (here + 1) % config_.numNodes;
        ++bus.epoch;
        if (tracing())
            emitTrace(busEvent(obs::EventKind::HeaderHop, bus, here, gap,
                               chosen));
        scheduleStep(StepKind::Header, config_.headerHopDelay, bus);
        afterStep();
        return;
    }

    // No reachable free segment at this gap.
    if (config_.blocking == BlockingPolicy::Wait) {
        block(bus);
        return;
    }
    ++rmbStats_.blockedAborts;
    if (tracing()) {
        obs::TraceEvent e = busEvent(obs::EventKind::Nack, bus, here, gap);
        e.a = obs::kNackNoSegment;
        emitTrace(e);
    }
    startTeardown(bus, BusState::NackTeardown);
}

void
RingEngine::establish(VirtualBus &bus)
{
    rmb_assert(bus.state == BusState::AwaitHack,
               "Hack arrived on a bus in state ",
               static_cast<int>(bus.state));
    bus.state = BusState::Streaming;
    ++bus.epoch;
    noteEstablished(messageRef(bus.message));
    noteCircuit(+1);
    // Closed-form pipelined streaming: the source emits payload+FF
    // flits one flitDelay apart; the last (final) flit drains
    // through hops.size() stages.
    const net::Message &m = message(bus.message);
    const auto path = static_cast<sim::Tick>(bus.hops.size());
    scheduleStep(StepKind::FinalFlit,
                 (static_cast<sim::Tick>(m.payloadFlits) + 1 + path) *
                     config_.flitDelay,
                 bus);
}

void
RingEngine::deliver(VirtualBus &bus)
{
    rmb_assert(bus.state == BusState::Streaming,
               "FF arrived on a non-streaming bus");
    noteDelivered(messageRef(bus.message),
                  static_cast<std::uint32_t>(bus.hops.size()));
    noteCircuit(-1);
    pes_[bus.dst].releaseReceive(bus.message);

    // Delivered despite at least one earlier sever: the recovery
    // path (teardown -> requeue -> retry) closed the loop.
    auto sev = severedAt_.find(bus.message);
    if (sev != severedAt_.end()) {
        const sim::Tick took = simulator().now() - sev->second;
        ++rmbStats_.messagesRecovered;
        rmbStats_.recoveryLatency.add(static_cast<double>(took));
        if (tracing()) {
            obs::TraceEvent e = busEvent(
                obs::EventKind::MessageRecovered, bus, bus.dst);
            e.a = took;
            emitTrace(e);
        }
        severedAt_.erase(sev);
    }
    startTeardown(bus, BusState::FackTeardown);
}

void
RingEngine::startTeardown(VirtualBus &bus, BusState kind)
{
    rmb_assert(isTeardown(kind), "bad teardown kind");
    bus.state = kind;
    ++bus.epoch;
    if (tracing()) {
        obs::TraceEvent e =
            busEvent(obs::EventKind::Teardown, bus, bus.headNode);
        e.a = kind == BusState::FackTeardown   ? obs::kTeardownFack
              : kind == BusState::NackTeardown ? obs::kTeardownNack
                                               : obs::kTeardownFault;
        emitTrace(e);
    }
    scheduleStep(StepKind::Teardown, config_.ackHopDelay, bus);
}

void
RingEngine::teardownStep(VirtualBus &bus)
{
    rmb_assert(isTeardown(bus.state), "teardown step on a live bus");
    rmb_assert(!bus.hops.empty(), "teardown of an empty bus");

    // The Fack/Nack just crossed the head-most remaining hop; the
    // INCs on both sides free its port(s).
    const Hop hop = bus.hops.back();
    bus.hops.pop_back();
    ++bus.hopsFreed;
    ++bus.epoch;
    if (bus.hops.empty()) {
        busFinished(bus, hop);
        return;
    }
    // A release may wake an injection that grows the pool, so the
    // bus is named by its key from here on.
    const BusKey key = bus.key;
    if (hop.inMove()) {
        releaseSegment(bus, hop.gap, hop.dualLevel, obs::kFreeTeardown);
        releaseSegment(busAt(key), hop.gap, hop.level,
                       obs::kFreeTeardown);
    } else {
        releaseSegment(bus, hop.gap, hop.level, obs::kFreeTeardown);
    }
    scheduleStep(StepKind::Teardown, config_.ackHopDelay, busAt(key));
    afterStep();
}

void
RingEngine::busFinished(VirtualBus &bus, const Hop &last_hop)
{
    // Retire the bus *before* releasing its final (source-gap)
    // segments: the release wakeups (blocked headers, pending
    // injections) must never observe a live bus with no hops.
    const net::NodeId src = bus.src;
    const net::MessageId mid = bus.message;
    const VirtualBusId bid = bus.id;
    const BusKey key = bus.key;
    const BusState kind = bus.state;
    const sim::Tick injected_at = bus.injectedAt;
    const bool top_released = bus.topReleased;
    const sim::Tick now = simulator().now();
    rmb_assert(last_hop.gap == bus.srcGap(),
               "teardown must end at the source gap");
    rmbStats_.liveBuses.adjust(now, -1);
    retireBus(bus);

    Pe &pe = pes_[src];
    pe.releaseSend(mid);

    // Retry bookkeeping precedes the wakeups so the backoff window
    // is in place when segmentFreed pokes the source PE.  A
    // fault-severed bus rides the same requeue path as a Nacked one.
    if (kind == BusState::NackTeardown ||
        kind == BusState::FaultTeardown) {
        net::Message &m = messageRef(mid);
        if (config_.maxRetries > 0 && m.retries >= config_.maxRetries) {
            writeOff(m, obs::kDeadRetriesExhausted);
        } else {
            pe.sendQueue.push_front(mid);
            scheduleRetry(src, mid);
        }
    }

    if (!top_released && last_hop.level == topLevel()) {
        rmbStats_.topReleaseLatency.add(
            static_cast<double>(now - injected_at));
    }
    // The bus record is gone, so the SegmentFree events are assembled
    // from the captured ids rather than via busEvent().
    const auto lastFree = [&](GapId gap, Level level) {
        const bool claimable = freeSegment(gap, level, key);
        if (tracing()) {
            obs::TraceEvent e;
            e.kind = obs::EventKind::SegmentFree;
            e.at = now;
            e.message = mid;
            e.bus = bid;
            e.node = gap;
            e.gap = gap;
            e.level = level;
            e.a = obs::kFreeTeardown;
            emitTrace(e);
        }
        if (claimable)
            segmentFreed(gap, level);
    };
    if (last_hop.inMove())
        lastFree(last_hop.gap, last_hop.dualLevel);
    lastFree(last_hop.gap, last_hop.level);
    tryInject(src);
    afterStep();
}

void
RingEngine::scheduleRetry(net::NodeId node, net::MessageId msg)
{
    const sim::Tick backoff = sim::retryBackoff(
        rng_, message(msg).retries, config_.retryBackoffMin,
        config_.retryBackoffMax, config_.retryBackoffCap);
    pes_[node].backoffUntil = simulator().now() + backoff;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::Backoff;
        e.at = simulator().now();
        e.message = msg;
        e.node = node;
        e.a = backoff;
        emitTrace(e);
    }
    scheduleInject(node, backoff);
}

void
RingEngine::traceSegmentFree(const VirtualBus &bus, GapId gap,
                             Level level, obs::SegmentFreeReason reason)
{
    obs::TraceEvent e =
        busEvent(obs::EventKind::SegmentFree, bus, gap, gap, level);
    e.a = reason;
    emitTrace(e);
}

void
RingEngine::releaseSegment(VirtualBus &bus, GapId gap, Level level,
                           obs::SegmentFreeReason reason)
{
    const bool claimable = freeSegment(gap, level, bus.key);
    noteSegmentFree(bus, gap, level, reason);
    if (!bus.topReleased && gap == bus.srcGap() && level == topLevel()) {
        bus.topReleased = true;
        rmbStats_.topReleaseLatency.add(
            static_cast<double>(simulator().now() - bus.injectedAt));
    }
    if (claimable)
        segmentFreed(gap, level);
}

bool
RingEngine::breakMove(const MoveRecord &r)
{
    VirtualBus &bus = pool_[r.slot];
    if (!bus.live || bus.id != r.bus)
        return false; // torn down since the make step
    if (r.hopIndex >= bus.hops.size())
        return false; // hop already freed by a travelling ack
    Hop &hop = bus.hops[r.hopIndex];
    const GapId gap = hop.gap;
    const Level to = r.fromLevel - 1;
    if (!hop.inMove() || hop.dualLevel != to || hop.level != r.fromLevel)
        return false; // stale record (move cancelled by a sever)
    if (segments_.faulted(gap, to)) {
        // The target faulted between make and break; the sever path
        // cancels such moves at fault time, but refuse here too so a
        // break can never commit onto a dead segment.
        return false;
    }
    hop.level = to;
    hop.dualLevel = kNoLevel;
    ++rmbStats_.compactionMoves;
    if (tracing()) {
        obs::TraceEvent e = busEvent(obs::EventKind::CompactionBreak,
                                     bus, gap, gap, to);
        e.a = static_cast<std::uint64_t>(r.fromLevel);
        emitTrace(e);
    }
    releaseSegment(bus, gap, r.fromLevel, obs::kFreeCompaction);
    return true;
}

void
RingEngine::segmentFreed(GapId gap, Level level)
{
    // Only Wait mode leaves headers blocked on a segment.
    if (config_.blocking == BlockingPolicy::Wait)
        wakeBlocked(gap, level);
    // A freed top segment lets the local PE inject a queued request.
    if (level == topLevel())
        tryInject(gap);
}

// ----------------------------------------------------------------
// Faults, severs and the dead-letter account (docs/FAULTS.md)
// ----------------------------------------------------------------

void
RingEngine::failSegment(GapId gap, Level level)
{
    const BusKey occupant = segments_.owner(gap, level);
    const VirtualBusId occupant_id =
        occupant == kNoKey ? kNoBus : busAt(occupant).id;
    if (occupant != kNoKey && !config_.transientFaults) {
        panic("failSegment(", gap, ",", level, "): can only fault a"
              " free segment while transient faults are disabled,"
              " and level ", level, " of gap ", gap,
              " is held by virtual bus ", occupant_id,
              "; set RmbConfig::transientFaults to sever live"
              " buses");
    }
    segments_.markFaulty(gap, level, simulator().now());
    ++rmbStats_.faultsInjected;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::SegmentFail;
        e.at = simulator().now();
        e.node = gap;
        e.gap = gap;
        e.level = level;
        e.a = occupant_id;
        emitTrace(e);
    }
    if (occupant != kNoKey)
        severOccupant(gap, level, busAt(occupant));
    afterFaultChange();
}

void
RingEngine::repairSegment(GapId gap, Level level)
{
    segments_.clearFault(gap, level, simulator().now());
    ++rmbStats_.faultsRepaired;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::SegmentRepair;
        e.at = simulator().now();
        e.node = gap;
        e.gap = gap;
        e.level = level;
        emitTrace(e);
    }
    // A severed occupant may still be walking its teardown across
    // this segment; then the wakeups happen at its release instead.
    if (segments_.isFree(gap, level))
        segmentFreed(gap, level);
    afterFaultChange();
}

void
RingEngine::severOccupant(GapId gap, Level level, VirtualBus &bus)
{
    if (isTeardown(bus.state))
        return; // the walking Fack/Nack will release it anyway

    const std::size_t idx = hopIndexAt(bus, gap);
    rmb_assert(idx < bus.hops.size(),
               "faulted segment held by a hop out of range");
    Hop &hop = bus.hops[idx];
    rmb_assert(hop.gap == gap, "hop/gap bookkeeping mismatch");

    if (hop.inMove() && (level == hop.dualLevel || level == hop.level)) {
        // A fault on the make-before-break *target* cancels the move
        // (the pending break record goes stale via inMove()); one on
        // the *old* level completes it early, since the lower segment
        // already carries the signal.  Either way nothing is severed.
        freeSegment(gap, level, bus.key);
        noteSegmentFree(bus, gap, level, obs::kFreeMoveCancel);
        if (level == hop.level) {
            hop.level = hop.dualLevel;
            ++rmbStats_.compactionMoves;
        }
        hop.dualLevel = kNoLevel;
        return;
    }
    rmb_assert(level == hop.level,
               "faulted segment not part of its occupant's hop");
    severBus(bus, obs::kSeverFault);
}

void
RingEngine::severBus(VirtualBus &bus, std::uint64_t reason)
{
    rmb_assert(!isTeardown(bus.state),
               "sever of a bus already tearing down");
    switch (bus.state) {
    case BusState::Blocked:
        unblock(bus);
        break;
    case BusState::AwaitHack:
        pes_[bus.dst].releaseReceive(bus.message);
        break;
    case BusState::Streaming:
        pes_[bus.dst].releaseReceive(bus.message);
        noteCircuit(-1);
        // The re-injected header starts a fresh circuit.
        messageRef(bus.message).state = net::MessageState::Setup;
        break;
    default:
        break; // Advancing
    }
    // A sever starts a new generation: every step scheduled for the
    // old one (header, Hack, final flit, a detailed flit or Dack, a
    // header timeout) then finds another generation and does nothing.
    // After the switch: unblock names the waiter by the old handle.
    ++bus.gen;

    ++rmbStats_.busesSevered;
    // emplace keeps the first sever
    severedAt_.emplace(bus.message, simulator().now());
    if (tracing()) {
        obs::TraceEvent e =
            busEvent(obs::EventKind::BusSevered, bus, bus.headNode);
        e.a = reason;
        emitTrace(e);
    }
    startTeardown(bus, BusState::FaultTeardown);
}

void
RingEngine::writeOff(net::Message &m, obs::DeadLetterReason reason)
{
    auto sev = severedAt_.find(m.id);
    if (sev != severedAt_.end()) {
        ++rmbStats_.messagesLost;
        severedAt_.erase(sev);
    }
    deadLetterMessage(m, reason);
}

bool
RingEngine::rescueStalled(net::MessageId id)
{
    net::Message &m = messageRef(id);
    if (m.state == net::MessageState::Delivered ||
        m.state == net::MessageState::Failed) {
        return false;
    }

    if (VirtualBus *carrier = carrierOf(id)) {
        if (!canStall(*carrier))
            return false;
        ++rmbStats_.watchdogFires;
        if (tracing()) {
            obs::TraceEvent e = busEvent(obs::EventKind::WatchdogFire,
                                         *carrier, carrier->src);
            e.a = carrier->epoch;
            emitTrace(e);
        }
        severBus(*carrier, obs::kSeverWatchdog);
        afterStep();
        return true;
    }

    // No bus: the message waits in its source queue (or its backoff).
    // A live queue is not a stall - the only unrecoverable silence
    // is a route that permanent damage has cut.
    if (!routeDead(m.src, m.dst))
        return false;
    Pe &pe = pes_[m.src];
    auto it = std::find(pe.sendQueue.begin(), pe.sendQueue.end(), id);
    if (it == pe.sendQueue.end())
        return false; // between teardown and requeue; look again
    pe.sendQueue.erase(it);
    ++rmbStats_.watchdogFires;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::WatchdogFire;
        e.at = simulator().now();
        e.message = id;
        e.node = m.src;
        emitTrace(e);
    }
    writeOff(m, obs::kDeadUnreachable);
    afterStep();
    return true;
}

// ----------------------------------------------------------------
// Invariant auditing
// ----------------------------------------------------------------

std::uint64_t
RingEngine::auditHops(const VirtualBus &bus) const
{
    const std::uint32_t path_length = pathLength(bus);
    const std::uint32_t n = config_.numNodes;
    const auto k = static_cast<Level>(config_.numBuses);
    const BusKey key = bus.key;
    const VirtualBusId id = bus.id;
    rmb_assert(!bus.hops.empty(), "live bus ", id, " with no hops");
    rmb_assert(bus.hops.size() + bus.hopsFreed <= path_length, "bus ",
               id, " longer than its path");
    std::uint64_t claimed = 0;
    for (std::size_t i = 0; i < bus.hops.size(); ++i) {
        const Hop &hop = bus.hops[i];
        rmb_assert(hop.gap == (bus.srcGap() + i) % n, "bus ", id,
                   " hop ", i, " at wrong gap");
        rmb_assert(hop.level >= 0 && hop.level < k, "bus ", id,
                   " level out of range");
        rmb_assert(segments_.owner(hop.gap, hop.level) == key,
                   "grid does not record bus ", id, " at (", hop.gap,
                   ",", hop.level, ")");
        ++claimed;
        if (hop.inMove()) {
            rmb_assert(hop.dualLevel == hop.level - 1,
                       "moves must go exactly one level down");
            rmb_assert(segments_.owner(hop.gap, hop.dualLevel) == key,
                       "dual segment not recorded");
            ++claimed;
        }
        if (i == 0)
            continue;
        const Hop &prev = bus.hops[i - 1];
        rmb_assert(!(prev.inMove() && hop.inMove()),
                   "adjacent hops of bus ", id, " moving concurrently");
        // Electrical connectivity: every live level pair of adjacent
        // hops must be within one level, and each output's derived
        // Table-1 code must be legal (sourceDirOf panics unless the
        // input level is adjacent).
        for (Level b : {hop.level, hop.dualLevel}) {
            if (b == kNoLevel)
                continue;
            StatusRegister reg;
            for (Level a : {prev.level, prev.dualLevel}) {
                if (a == kNoLevel)
                    continue;
                rmb_assert(a - b <= 1 && b - a <= 1, "bus ", id,
                           " kinked at gap ", hop.gap, ": levels ", a,
                           " -> ", b);
                reg.connect(sourceDirOf(a, b));
            }
        }
    }
    // Circuit-complete states must span the whole path.
    if (bus.state == BusState::AwaitHack ||
        bus.state == BusState::Streaming) {
        rmb_assert(bus.hops.size() == path_length, "established bus ",
                   id, " does not span its path");
    }
    return claimed;
}

void
RingEngine::auditSegments() const
{
    // Every hop's claim must match the grid, and vice versa.
    // occupiedSegments() counts bus-owned cells only; faulted cells
    // are tracked separately by faultySegments().
    std::uint64_t claimed = 0;
    for (const VirtualBus &bus : pool_) {
        if (bus.live)
            claimed += auditHops(bus);
    }
    rmb_assert(claimed == occupiedSegments(), "grid claims ",
               occupiedSegments(), " segments but buses own ", claimed,
               " (plus ", faultySegments(), " faulted)");

    // The occupancy plane and the per-level counts (the kernel's make
    // pass reads both) match the owner grid.  Fault/occupancy
    // consistency: the fault count adds up, a faulted segment never
    // reads as free, and any bus still holding one must be tearing
    // down (failSegment severs the occupant synchronously; only the
    // walking teardown may linger).
    const auto k = static_cast<Level>(config_.numBuses);
    std::vector<std::uint32_t> held_at(config_.numBuses, 0);
    std::uint32_t faulted_seen = 0;
    for (GapId g = 0; g < config_.numNodes; ++g) {
        for (Level l = 0; l < k; ++l) {
            const BusKey key = segments_.owner(g, l);
            const bool held = key != kNoKey;
            held_at[static_cast<std::size_t>(l)] += held ? 1 : 0;
            rmb_assert(segments_.occupied(g, l) == held,
                       "occupancy plane out of sync with the owner"
                       " grid at (", g, ",", l, ")");
            if (!segments_.faulted(g, l))
                continue;
            ++faulted_seen;
            rmb_assert(!segments_.isFree(g, l), "faulted segment (", g,
                       ",", l, ") reads as free");
            if (!held)
                continue;
            const VirtualBus &owner = busAt(key);
            rmb_assert(isTeardown(owner.state), "bus ", owner.id,
                       " holds faulted segment (", g, ",", l,
                       ") but is not tearing down (state ",
                       static_cast<int>(owner.state), ")");
        }
    }
    for (Level l = 0; l < k; ++l) {
        rmb_assert(segments_.occupiedAt(l) ==
                       held_at[static_cast<std::size_t>(l)],
                   "level ", l, " counts ", segments_.occupiedAt(l),
                   " held cells but the owner grid shows ",
                   held_at[static_cast<std::size_t>(l)]);
    }
    rmb_assert(faulted_seen == faultySegments(), "fault mask shows ",
               faulted_seen, " faulted segments but the store counts ",
               faultySegments());

    const auto live = static_cast<std::size_t>(std::count_if(
        pool_.begin(), pool_.end(),
        [](const VirtualBus &b) { return b.live; }));
    rmb_assert(live + freeSlots_.size() == pool_.size(), "pool of ",
               pool_.size(), " slots holds ", live, " live buses but ",
               freeSlots_.size(), " free slots");
}

} // namespace core
} // namespace rmb
