#include "rmb/network.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/prof.hh"
#include "rmb/compaction_rules.hh"

namespace rmb {
namespace core {

RmbNetwork::RmbNetwork(sim::Simulator &simulator,
                       const RmbConfig &config)
    : RingEngine(simulator, "RMB(ring)", config, "event.inject",
                 "event.advance"),
      waiters_(config.numNodes)
{
    if (config_.numNodes % 2 != 0) {
        warn("odd node count: the odd/even INC marking of section"
             " 2.4 is imperfect on an odd ring (two adjacent INCs"
             " share a parity); the DES serialization keeps the"
             " protocol correct regardless");
    }

    incs_.reserve(config_.numNodes);
    for (std::uint32_t i = 0; i < config_.numNodes; ++i) {
        const sim::Tick period = rng_.uniformRange(
            config_.cyclePeriodMin, config_.cyclePeriodMax);
        incs_.push_back(std::make_unique<Inc>(i, period));
    }
    for (auto &inc : incs_)
        inc->start(*this);
    startFaultSchedule();
}

RmbNetwork::~RmbNetwork() = default;

const Inc &
RmbNetwork::leftOf(std::uint32_t i) const
{
    return *incs_[(i + config_.numNodes - 1) % config_.numNodes];
}

const Inc &
RmbNetwork::rightOf(std::uint32_t i) const
{
    return *incs_[(i + 1) % config_.numNodes];
}

// ----------------------------------------------------------------
// RingEngine hooks
// ----------------------------------------------------------------

void
RmbNetwork::scheduleInject(net::NodeId node, sim::Tick delay)
{
    simulator().schedule(delay, [this, node] { tryInject(node); });
}

void
RmbNetwork::scheduleStep(StepKind kind, sim::Tick delay, VirtualBus &bus)
{
    // One [this, h] closure per kind: it fits std::function's inline
    // buffer, so scheduling a step does not allocate.
    const BusHandle h = handleOf(bus);
    switch (kind) {
    case StepKind::Header:
        simulator().schedule(
            delay, [this, h] { runStep(StepKind::Header, h); });
        break;
    case StepKind::Hack:
        simulator().schedule(delay,
                             [this, h] { runStep(StepKind::Hack, h); });
        break;
    case StepKind::FinalFlit:
        if (config_.detailedFlits) {
            // Flit-by-flit with Dack window flow control; the first
            // flit leaves one flitDelay after the Hack.
            simulator().schedule(config_.flitDelay,
                                 [this, h] { departFlit(h, 0); });
        } else {
            simulator().schedule(delay, [this, h] { landFinalFlit(h); });
        }
        break;
    case StepKind::Teardown:
        simulator().schedule(
            delay, [this, h] { runStep(StepKind::Teardown, h); });
        break;
    }
}

bool
RmbNetwork::canStall(const VirtualBus &bus) const
{
    return !isTeardown(bus.state) &&
           !(bus.state == BusState::Streaming && !config_.detailedFlits);
}

void
RmbNetwork::block(VirtualBus &bus)
{
    if (bus.state == BusState::Blocked)
        return; // woken, but the freed segment was not reachable
    const GapId gap = bus.headNode;
    bus.state = BusState::Blocked;
    bus.blockedSince = simulator().now();
    ++bus.epoch;
    ++rmbStats_.blockedHeaders;
    if (tracing())
        emitTrace(busEvent(obs::EventKind::Block, bus, gap, gap));
    const BusHandle h = handleOf(bus);
    waiters_[gap].push_back(h);
    if (config_.headerTimeout > 0) {
        simulator().schedule(config_.headerTimeout,
                             [this, h] { onHeaderTimeout(h); });
    }
    auditIfFull();
}

void
RmbNetwork::unblock(VirtualBus &bus)
{
    rmbStats_.blockedTime.add(
        static_cast<double>(simulator().now() - bus.blockedSince));
    auto &q = waiters_[bus.headNode];
    q.erase(std::remove(q.begin(), q.end(), handleOf(bus)), q.end());
}

void
RmbNetwork::wakeBlocked(GapId gap, Level level)
{
    // Wake blocked headers waiting at this gap (FIFO order).  A
    // snapshot is used because tryAdvance edits the deque.
    if (waiters_[gap].empty())
        return;
    const std::vector<BusHandle> snapshot(waiters_[gap].begin(),
                                          waiters_[gap].end());
    for (BusHandle h : snapshot) {
        VirtualBus *bus = liveBus(h);
        if (!bus || bus->state != BusState::Blocked)
            continue;
        if (!segments_.isFree(gap, level))
            break; // the freed segment was taken
        tryAdvance(*bus);
    }
}

// ----------------------------------------------------------------
// Protocol steps
// ----------------------------------------------------------------

MulticastId
RmbNetwork::multicast(net::NodeId src,
                      std::vector<net::NodeId> members,
                      std::uint32_t payload_flits)
{
    rmb_assert(!members.empty(), "multicast needs members");
    // The carrier's destination is the farthest member clockwise;
    // every other member taps the virtual bus as flits pass it.
    net::NodeId farthest = members.front();
    std::uint32_t max_dist = 0;
    for (net::NodeId member : members) {
        rmb_assert(member < config_.numNodes, "member out of range");
        rmb_assert(member != src, "the source cannot be a member");
        const std::uint32_t d =
            (member + config_.numNodes - src) % config_.numNodes;
        if (d > max_dist) {
            max_dist = d;
            farthest = member;
        }
    }
    const net::MessageId carrier =
        send(src, farthest, payload_flits);

    MulticastRecord record;
    record.id = multicasts_.size() + 1;
    record.carrier = carrier;
    record.src = src;
    record.members = std::move(members);
    record.deliveredAt.assign(record.members.size(), 0);
    multicasts_.push_back(std::move(record));
    carrierToMulticast_[carrier] = multicasts_.back().id;
    return multicasts_.back().id;
}

MulticastId
RmbNetwork::broadcast(net::NodeId src, std::uint32_t payload_flits)
{
    std::vector<net::NodeId> members;
    members.reserve(config_.numNodes - 1);
    for (net::NodeId i = 1; i < config_.numNodes; ++i)
        members.push_back(
            static_cast<net::NodeId>((src + i) % config_.numNodes));
    return multicast(src, std::move(members), payload_flits);
}

const MulticastRecord &
RmbNetwork::multicastRecord(MulticastId id) const
{
    rmb_assert(id != 0 && id <= multicasts_.size(),
               "unknown multicast id ", id, " (valid ids are 1..",
               multicasts_.size(), ")");
    return multicasts_[id - 1];
}

void
RmbNetwork::finishMulticast(net::MessageId carrier)
{
    auto it = carrierToMulticast_.find(carrier);
    if (it == carrierToMulticast_.end())
        return;
    MulticastRecord &record = multicasts_[it->second - 1];
    const net::Message &m = message(carrier);
    // Member j saw the last payload flit when the final flit passed
    // it: established + (payload + FF + distance) * flitDelay.
    for (std::size_t i = 0; i < record.members.size(); ++i) {
        const std::uint32_t d =
            (record.members[i] + config_.numNodes - record.src) %
            config_.numNodes;
        record.deliveredAt[i] =
            m.established +
            (static_cast<sim::Tick>(m.payloadFlits) + 1 + d) *
                config_.flitDelay;
        rmbStats_.multicastMemberLatency.add(static_cast<double>(
            record.deliveredAt[i] - m.created));
    }
    record.complete = true;
    ++rmbStats_.multicasts;
}

void
RmbNetwork::onHeaderTimeout(BusHandle h)
{
    // A header woken and blocked again since this timeout was set
    // waits for the timeout of its latest block.
    VirtualBus *bus = liveBus(h);
    if (!bus || bus->state != BusState::Blocked ||
        bus->blockedSince + config_.headerTimeout != simulator().now())
        return;
    ++rmbStats_.timeoutAborts;
    unblock(*bus);
    if (tracing()) {
        obs::TraceEvent e = busEvent(obs::EventKind::Nack, *bus,
                                     bus->headNode, bus->headNode);
        e.a = obs::kNackTimeout;
        emitTrace(e);
    }
    startTeardown(*bus, BusState::NackTeardown);
}

void
RmbNetwork::landFinalFlit(BusHandle h)
{
    const VirtualBus *bus = liveBus(h);
    if (!bus)
        return; // severed before the final flit could land
    const net::MessageId carrier = bus->message;
    runStep(StepKind::FinalFlit, h);
    finishMulticast(carrier);
}

void
RmbNetwork::departFlit(BusHandle h, std::uint32_t seq)
{
    VirtualBus *bus = liveBus(h);
    if (!bus)
        return; // severed; the pump died with the bus
    rmb_assert(bus->state == BusState::Streaming,
               "flit departure on a non-streaming bus");
    rmb_assert(seq == bus->flitsSent, "flits must depart in order");
    const net::Message &m = message(bus->message);
    rmb_assert(seq <= m.payloadFlits, "flit sequence overrun");

    ++bus->flitsSent;
    ++bus->epoch;
    bus->lastFlitDepart = simulator().now();
    if (tracing()) {
        obs::TraceEvent e =
            busEvent(obs::EventKind::DataFlit, *bus, bus->src);
        e.a = seq;
        emitTrace(e);
    }

    // The circuit is dedicated, so the flit pipelines across the
    // hops at one gap per flitDelay, undisturbed by compaction
    // (flits ride the virtual bus, not a fixed physical level).
    const auto path = static_cast<sim::Tick>(bus->hops.size());
    simulator().schedule(path * config_.flitDelay, [this, h, seq] {
        flitArriveAtDst(h, seq);
    });

    if (seq == m.payloadFlits)
        return; // FF sent; the pump is done.

    // Send the next flit one flitDelay later if the Dack window
    // allows; otherwise stall until a Dack reopens it.
    if (bus->flitsSent - bus->flitsAcked < config_.dackWindow) {
        simulator().schedule(config_.flitDelay, [this, h, seq] {
            departFlit(h, seq + 1);
        });
    } else {
        bus->pumpStalled = true;
    }
}

void
RmbNetwork::flitArriveAtDst(BusHandle h, std::uint32_t seq)
{
    VirtualBus *bus = liveBus(h);
    if (!bus)
        return; // severed; in-flight flits are lost with the bus
    rmb_assert(bus->state == BusState::Streaming,
               "flit arrival on a non-streaming bus");
    // The paper's contiguity guarantee: flits arrive in order and
    // gap-free.
    rmb_assert(seq == bus->flitsAtDst,
               "flit ", seq, " arrived out of order (expected ",
               bus->flitsAtDst, ")");
    rmb_assert(bus->flitsAtDst == 0 ||
                   simulator().now() >=
                       bus->lastFlitArrive + config_.flitDelay,
               "flits bunched closer than the pipeline rate");
    ++bus->flitsAtDst;
    ++bus->epoch;
    bus->lastFlitArrive = simulator().now();

    const net::Message &m = message(bus->message);
    if (seq == m.payloadFlits) {
        landFinalFlit(h);
        return;
    }
    // Dack returns along the virtual bus.
    const auto path = static_cast<sim::Tick>(bus->hops.size());
    simulator().schedule(path * config_.ackHopDelay,
                         [this, h] { dackArriveAtSource(h); });
}

void
RmbNetwork::dackArriveAtSource(BusHandle h)
{
    VirtualBus *bus = liveBus(h);
    if (!bus)
        return; // severed, or retired (Dacks may trail the FF)
    ++bus->flitsAcked;
    ++bus->epoch;
    ++rmbStats_.dacks;
    if (tracing()) {
        obs::TraceEvent e =
            busEvent(obs::EventKind::Dack, *bus, bus->src);
        e.a = bus->flitsAcked;
        emitTrace(e);
    }
    if (bus->pumpStalled &&
        bus->flitsSent - bus->flitsAcked < config_.dackWindow) {
        bus->pumpStalled = false;
        const sim::Tick next_depart =
            bus->lastFlitDepart + config_.flitDelay;
        const sim::Tick now = simulator().now();
        const sim::Tick delay =
            next_depart > now ? next_depart - now : 0;
        const std::uint32_t seq = bus->flitsSent;
        simulator().schedule(delay, [this, h, seq] {
            departFlit(h, seq);
        });
    }
}

// ----------------------------------------------------------------
// Compaction (called from Inc)
// ----------------------------------------------------------------

std::vector<MoveRecord>
RmbNetwork::makeEligibleMoves(GapId gap, int parity)
{
    RMB_PROF_SCOPE_SAMPLED("event.compaction_make");
    std::vector<MoveRecord> out;
    const auto k = static_cast<Level>(config_.numBuses);
    for (Level l = 1; l < k; ++l) {
        if ((l % 2) == parity)
            makeMove(gap, l, out);
    }
    if (!out.empty())
        auditIfFull();
    return out;
}

void
RmbNetwork::breakMoves(const std::vector<MoveRecord> &records)
{
    RMB_PROF_SCOPE_SAMPLED("event.compaction_break");
    for (const MoveRecord &r : records) {
        if (!breakMove(r))
            continue;
        // A blocked header whose input hop just moved down may now
        // reach a lower (free) output level.
        VirtualBus &bus = pool_[r.slot];
        if (bus.live && bus.id == r.bus &&
            bus.state == BusState::Blocked &&
            r.hopIndex + 1 == bus.hops.size()) {
            tryAdvance(bus);
        }
    }
    auditIfFull();
}

void
RmbNetwork::noteCycleFlip(std::uint32_t inc_index)
{
    ++rmbStats_.cycleFlips;
    const std::uint64_t mine = incs_[inc_index]->cycleCount();
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::CycleFlip;
        e.at = simulator().now();
        e.node = inc_index;
        e.gap = inc_index;
        e.a = mine;
        emitTrace(e);
    }
    for (const Inc *nb : {&leftOf(inc_index), &rightOf(inc_index)}) {
        const std::uint64_t theirs = nb->cycleCount();
        const std::uint64_t skew =
            mine > theirs ? mine - theirs : theirs - mine;
        if (skew > rmbStats_.maxCycleSkew)
            rmbStats_.maxCycleSkew = skew;
        if (config_.verify != VerifyLevel::Off) {
            rmb_assert(skew <= 1, "Lemma 1 violated: INC ",
                       inc_index, " at cycle ", mine, ", neighbour ",
                       nb->index(), " at ", theirs);
        }
    }
}

// ----------------------------------------------------------------
// Derived status registers and invariant auditing
// ----------------------------------------------------------------

std::uint8_t
RmbNetwork::outputStatus(net::NodeId node, Level level,
                         bool *pe_driven) const
{
    if (pe_driven)
        *pe_driven = false;
    const BusKey key = segments_.owner(node, level);
    if (key == kNoKey)
        return 0b000;
    const VirtualBus *b = &busAt(key);
    const std::size_t idx = hopIndexAt(*b, node);
    rmb_assert(idx < b->hops.size(), "occupant hop out of range");

    if (idx == 0) {
        // Source hop: the PE write port drives this output; Table 1
        // does not model PE sources.
        if (pe_driven)
            *pe_driven = true;
        return 0b000;
    }

    const Hop &prev = b->hops[idx - 1];
    StatusRegister reg;
    if (prev.inMove()) {
        // Input mid-move: both the old and the new input level drive
        // this output (the documented 011/110 dual codes).
        reg.connect(sourceDirOf(prev.level, level));
        reg.connect(sourceDirOf(prev.dualLevel, level));
    } else {
        reg.connect(sourceDirOf(prev.level, level));
    }
    return reg.bits();
}

void
RmbNetwork::auditInvariants() const
{
    auditSegments();
    for (const VirtualBus &bus : pool_) {
        if (!bus.live || bus.state != BusState::Blocked)
            continue;
        const auto &q = waiters_[bus.headNode];
        rmb_assert(std::find(q.begin(), q.end(), handleOf(bus)) !=
                       q.end(),
                   "blocked bus ", bus.id, " missing from waiter list");
    }
}

} // namespace core
} // namespace rmb
