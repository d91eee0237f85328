#include "rmb/ring_graph.hh"

#include <algorithm>

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/prof.hh"
#include "rmb/fault.hh"

namespace rmb {
namespace core {

namespace {

/** Stream id of the hierarchy's ring seed substreams. */
constexpr std::uint64_t kRingSeedStream = 0x10ca1;

/** Stream id of the per-bridge deflection-backoff substreams. */
constexpr std::uint64_t kBridgeStream = 0xb71d9e;

RmbConfig
subConfig(const RmbConfig &parent, const RingSpec &ring)
{
    RmbConfig sub = parent;
    sub.topology = TopologyKind::Flat;
    sub.numNodes = ring.nodes;
    sub.numBuses = ring.levels;
    sub.globalBuses = 0;
    // The parent owns the fault schedule (over the whole domain,
    // bridges included) and runs the delivery supervisor itself;
    // rings run the bare protocol on the inherited
    // engine/verify/blocking options.
    sub.faultMtbf = 0;
    sub.faultBridgeProb = 0.0;
    sub.watchdogTimeout = 0;
    sub.shardJobs = 1;
    sub.seed = ring.seed;
    return sub;
}

} // namespace

RingGraph::BridgeStats::BridgeStats(obs::MetricsRegistry &registry)
    : arrivals(registry.counter("hier.bridge.arrivals")),
      departures(registry.counter("hier.bridge.departures")),
      deflections(registry.counter("hier.bridge.deflections")),
      occupancy(registry.level("hier.bridge.occupancy"))
{}

RingGraph::RingGraph(sim::Simulator &simulator, const RmbConfig &config,
                     RingShape shape)
    : Engine(simulator, shape.name,
             validatedEngineConfig(config).numNodes),
      config_(config), route_(std::move(shape.route)),
      rmbStats_(metrics()),
      runner_(shape.bridges.empty() ? 1 : config.shardJobs)
{
    const sim::Random root(config_.seed);
    bridges_.reserve(shape.bridges.size());
    for (std::uint32_t b = 0; b < shape.bridges.size(); ++b)
        bridges_.push_back(Bridge{shape.bridges[b], 0,
                                  root.split(kBridgeStream + b)});
    if (sharded())
        bridgeStats_.emplace(metrics());

    GapId gaps = 0;
    std::uint32_t segs = 0;
    shards_.reserve(shape.rings.size());
    for (std::uint32_t r = 0; r < shape.rings.size(); ++r) {
        const RingSpec &spec = shape.rings[r];
        auto shard = std::make_unique<Shard>();
        if (sharded())
            shard->ownSim = std::make_unique<sim::Simulator>();
        shard->sim = sharded() ? shard->ownSim.get() : &simulator;
        shard->engine =
            makeEngine(*shard->sim, subConfig(config_, spec));
        shard->engine->setDeliveryCallback(
            [this, r](const net::Message &pm) {
                legDone(r, {pm.delivered, pm.id, false});
            });
        shard->engine->setFailureCallback(
            [this, r](const net::Message &pm) {
                legDone(r, {shards_[r]->sim->now(), pm.id, true});
            });
        shard->gapBase = gaps;
        shard->segBase = segs;
        gaps += spec.nodes;
        segs += spec.nodes * spec.levels;
        shards_.push_back(std::move(shard));
    }
    faultMirror_.assign(segs, 0);

    if (config_.faultMtbf > 0) {
        // Same substream id as the flat engines: the schedule draws
        // from its own split so the fault storm never perturbs
        // protocol randomness, and it runs entirely on the parent
        // simulator so any shardJobs replays it identically.
        faults_ = std::make_unique<FaultSchedule>(
            *this, sim::Random(config_.seed).split(kFaultStream));
        faults_->start();
    }

    mutateHops_ = common::mutationHook("RMB_HIER_MUTATE");
}

RingGraph::~RingGraph() = default;

const Engine &
RingGraph::ringEngine(std::uint32_t ring) const
{
    rmb_assert(ring < shards_.size(), "ring index out of range");
    return *shards_[ring]->engine;
}

net::MessageId
RingGraph::send(net::NodeId src, net::NodeId dst,
                std::uint32_t payload_flits)
{
    rmb_assert(src < numNodes() && dst < numNodes(),
               "send endpoint out of range");
    rmb_assert(src != dst, "self-messages are rejected earlier");

    net::Message &m = createMessage(src, dst, payload_flits);
    noteFirstAttempt(m);

    if (routeDead(src, dst)) {
        // Permanent damage has already cut every route this message
        // could take: write it off at the source instead of bouncing
        // legs off the wreckage (the flat engines' queue sweep, one
        // composition level up).
        deadLetterMessage(m, rmbStats_, obs::kDeadUnreachable);
        return m.id;
    }

    Pending p;
    p.ours = m.id;
    p.src = src;
    p.dst = dst;
    enterLeg(route_(src, dst, 0), p, simulator().now());
    ensureArmed();
    superviseActivity();
    return m.id;
}

void
RingGraph::enterLeg(const RingLeg &leg, const Pending &pending,
                    sim::Tick at)
{
    if (leg.bridge == RingLeg::kNone) {
        launchLeg(leg, at, pending);
    } else if (pending.step == 0) {
        // The source is a bridge node: the message starts at the
        // bridge.  The admission offer goes through the deferred
        // queue so the barrier processes it in global time order
        // with every other bridge transaction.
        offers_.push(Offer{at, offerSeq_++, leg.bridge, pending});
    } else {
        offerToBridge(leg.bridge, pending, at);
    }
}

void
RingGraph::launchLeg(const RingLeg &leg, sim::Tick at,
                     const Pending &pending)
{
    const std::uint32_t flits = message(pending.ours).payloadFlits;
    Shard &sh = *shards_[leg.ring];
    if (!sharded()) {
        const net::MessageId id =
            sh.engine->send(leg.from, leg.to, flits);
        sh.legs.emplace(id, pending);
        return;
    }
    // The conservative window guarantees at >= the shard clock in
    // the steady state; the clamp covers offer-driven legs whose
    // admission time predates the current window (docs/HIERARCHY.md).
    const sim::Tick when = std::max(at, sh.sim->now());
    sh.sim->scheduleAt(when, [&sh, leg, flits, pending] {
        const net::MessageId id =
            sh.engine->send(leg.from, leg.to, flits);
        sh.legs.emplace(id, pending);
    });
}

void
RingGraph::legDone(std::uint32_t ring, const OutRecord &rec)
{
    if (sharded())
        shards_[ring]->outbox.push_back(rec);
    else
        processRecord(ring, rec); // a direct hand-off runs inline
}

void
RingGraph::processRecord(std::uint32_t shard, const OutRecord &rec)
{
    Shard &sh = *shards_[shard];
    auto it = sh.legs.find(rec.leg);
    if (it == sh.legs.end()) {
        // The delivery supervisor dead-lettered the parent message
        // and orphaned this leg; its completion is dropped.
        rmb_assert(sh.orphans.erase(rec.leg) == 1,
                   "ring completed an unmapped leg");
        return;
    }
    Pending p = it->second;
    sh.legs.erase(it);

    const net::Message &pm = sh.engine->message(rec.leg);
    net::Message &m = messageRef(p.ours);
    m.nacks += pm.nacks;
    m.retries += pm.retries;
    stats_.nacks += pm.nacks;
    stats_.retries += pm.retries;

    // The slot of the bridge this leg entered through is held until
    // the leg completes or fails.
    const std::uint32_t held = route_(p.src, p.dst, p.step).bridge;
    if (held != RingLeg::kNone)
        releaseBridge(held, p, rec.at);
    if (rec.failed) {
        // A leg exhausted its bounded retries.
        deadLetterMessage(m, rmbStats_, obs::kDeadRetriesExhausted);
        return;
    }

    p.hops += pm.pathHops;
    ++p.step;
    const RingLeg next = route_(p.src, p.dst, p.step);
    if (next.ring == RingLeg::kNone)
        finish(p, rec.at, pm.established);
    else
        enterLeg(next, p, rec.at);
}

void
RingGraph::offerToBridge(std::uint32_t bridge, Pending pending,
                         sim::Tick at)
{
    RMB_PROF_SCOPE("hier.bridge_exchange");
    Bridge &br = bridges_[bridge];
    if (br.dead && br.permanent) {
        // The bridge is gone for good: no amount of deflect-and-
        // retry will ever be admitted.  An offer holds no buffer
        // slot, so the write-off is pure accounting.
        deadLetterMessage(messageRef(pending.ours), rmbStats_,
                          obs::kDeadBridgeDead);
        return;
    }
    if (!br.dead && br.occupancy < config_.bridgeBuffer) {
        ++br.occupancy;
        ++bridgeStats_->arrivals;
        bridgeStats_->occupancy.adjust(at, +1);
        pending.deflects = 0;
        if (!mutateHops_)
            ++pending.hops; // the bridge traversal itself
        emitBridgeEvent(obs::EventKind::BridgeArrive, bridge, pending,
                        at, br.occupancy);
        launchLeg(route_(pending.src, pending.dst, pending.step),
                  at + config_.bridgeLatency, pending);
        return;
    }

    // Buffer full (or the bridge transiently out of service):
    // deflect.  The message re-enters the Nack/backoff machinery -
    // same law as a source retry (network.cc scheduleRetry),
    // jittered from the bridge's own substream so colliding messages
    // cannot phase-lock.
    ++bridgeStats_->deflections;
    net::Message &m = messageRef(pending.ours);
    ++m.nacks;
    ++stats_.nacks;
    ++m.retries;
    ++stats_.retries;
    sim::Tick backoff = br.rng.uniformRange(config_.retryBackoffMin,
                                            config_.retryBackoffMax);
    if (config_.exponentialBackoff) {
        const std::uint32_t shift = std::min(pending.deflects, 16u);
        if ((backoff << shift) >= config_.retryBackoffCap) {
            backoff = br.rng.uniformRange(config_.retryBackoffCap / 2,
                                          config_.retryBackoffCap);
        } else {
            backoff <<= shift;
        }
    }
    ++pending.deflects;
    emitBridgeEvent(obs::EventKind::BridgeDeflect, bridge, pending, at,
                    backoff);
    offers_.push(Offer{at + backoff, offerSeq_++, bridge, pending});
}

void
RingGraph::releaseBridge(std::uint32_t bridge, const Pending &p,
                         sim::Tick at)
{
    Bridge &br = bridges_[bridge];
    rmb_assert(br.occupancy > 0, "bridge slot released while empty");
    --br.occupancy;
    ++bridgeStats_->departures;
    bridgeStats_->occupancy.adjust(at, -1);
    emitBridgeEvent(obs::EventKind::BridgeDepart, bridge, p, at,
                    br.occupancy);
}

void
RingGraph::finish(Pending &pending, sim::Tick at,
                  sim::Tick established)
{
    net::Message &m = messageRef(pending.ours);
    m.established = established;
    stats_.setupLatency.add(
        static_cast<double>(m.established - m.firstAttempt));
    noteDelivered(m, pending.hops, at);
}

void
RingGraph::emitBridgeEvent(obs::EventKind kind, std::uint32_t bridge,
                           const Pending &pending, sim::Tick at,
                           std::uint64_t a)
{
    if (!tracing())
        return;
    obs::TraceEvent e;
    e.kind = kind;
    e.at = at;
    e.message = pending.ours;
    e.node = bridges_[bridge].node;
    e.a = a;
    emitTrace(e);
}

// --- the conservative parallel executor ---

void
RingGraph::ensureArmed()
{
    if (armed_ || !sharded())
        return;
    armed_ = true;
    simulator().scheduleAt(simulator().now(), [this] { coordinate(); });
}

sim::Tick
RingGraph::windowCandidate()
{
    sim::Tick tmin = sim::kMaxTick;
    for (const auto &sh : shards_)
        tmin = std::min(tmin, sh->sim->eventQueue().nextTick());
    const sim::Tick offer_next =
        offers_.empty() ? sim::kMaxTick : offers_.top().at;
    if (tmin == sim::kMaxTick && offer_next == sim::kMaxTick)
        return sim::kMaxTick; // nothing left anywhere: disarm
    sim::Tick cand = offer_next;
    if (tmin != sim::kMaxTick)
        cand = std::min(cand, tmin + config_.bridgeLatency);
    // Never run a window past the next parent event: workload
    // injections and fault wrappers must observe shard clocks <= the
    // parent clock.
    return std::min(cand, simulator().eventQueue().nextTick());
}

void
RingGraph::coordinate()
{
    const sim::Tick cand = windowCandidate();
    if (cand == sim::kMaxTick) {
        foldRingStats();
        armed_ = false;
        return;
    }
    const sim::Tick until = std::max(cand, simulator().now());
    runWindow(until);
    drainBarrier(until);
    foldRingStats();
    // Re-fire at the window end; a same-tick target means pending
    // parent events at this tick run first (FIFO) and the next
    // firing sees their effects.
    simulator().scheduleAt(until, [this] { coordinate(); });
}

void
RingGraph::runWindow(sim::Tick until)
{
    // Every shard is an independent simulator advancing to the same
    // horizon; the Runner spreads them over shardJobs threads.  The
    // window schedule itself never depends on the job count, which
    // is what keeps results byte-identical for any --jobs.
    RMB_PROF_SCOPE("hier.window");
    runner_.forEach(shards_.size(), [&](std::size_t s) {
        // Runs on a Runner worker thread when --jobs > 1; the
        // profiler accumulates per thread and merges by name, so
        // shard time shows up whichever thread carried it.
        RMB_PROF_SCOPE("hier.shard_step");
        Shard &sh = *shards_[s];
        if (until > sh.sim->now())
            sh.sim->runUntil(until);
    });
}

void
RingGraph::drainBarrier(sim::Tick until)
{
    RMB_PROF_SCOPE("hier.drain_barrier");
    // Merge the per-shard outboxes and the due admission offers into
    // one globally time-ordered stream.  Outboxes are time-sorted
    // already (callbacks fire in event order); the stable sort keeps
    // shard-then-FIFO order among equal times.
    struct Ref
    {
        sim::Tick at;
        std::uint32_t shard;
        std::uint32_t idx;
    };
    std::vector<Ref> refs;
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
        const auto &outbox = shards_[s]->outbox;
        for (std::uint32_t i = 0; i < outbox.size(); ++i)
            refs.push_back(Ref{outbox[i].at, s, i});
    }
    std::stable_sort(refs.begin(), refs.end(),
                     [](const Ref &a, const Ref &b) {
                         return a.at < b.at;
                     });

    std::size_t i = 0;
    while (true) {
        const bool have_rec = i < refs.size();
        const bool have_offer =
            !offers_.empty() && offers_.top().at <= until;
        if (!have_rec && !have_offer)
            break;
        if (have_rec &&
            (!have_offer || refs[i].at <= offers_.top().at)) {
            const Ref &r = refs[i++];
            processRecord(r.shard, shards_[r.shard]->outbox[r.idx]);
        } else {
            const Offer o = offers_.top();
            offers_.pop();
            offerToBridge(o.bridge, o.pending, o.at);
        }
    }
    for (auto &sh : shards_)
        sh->outbox.clear();
}

const RmbStats &
RingGraph::rmbStats() const
{
    foldRingStats();
    return rmbStats_;
}

void
RingGraph::foldRingStats() const
{
    // The counters live in the registry, so a const fold is a cache
    // refresh: the rings' totals are the network's totals.
    std::uint64_t moves = 0, flips = 0, blocked = 0, aborts = 0,
                  timeouts = 0, dacks = 0, severed = 0, recovered = 0,
                  lost = 0, skew = 0;
    for (const auto &sh : shards_) {
        const RmbStats &ss = sh->engine->rmbStats();
        moves += ss.compactionMoves.value();
        flips += ss.cycleFlips.value();
        blocked += ss.blockedHeaders.value();
        aborts += ss.blockedAborts.value();
        timeouts += ss.timeoutAborts.value();
        dacks += ss.dacks.value();
        severed += ss.busesSevered.value();
        recovered += ss.messagesRecovered.value();
        lost += ss.messagesLost.value();
        skew = std::max(skew, ss.maxCycleSkew.value());
    }
    rmbStats_.compactionMoves = moves;
    rmbStats_.cycleFlips = flips;
    rmbStats_.blockedHeaders = blocked;
    rmbStats_.blockedAborts = aborts;
    rmbStats_.timeoutAborts = timeouts;
    rmbStats_.dacks = dacks;
    rmbStats_.busesSevered = severed;
    rmbStats_.messagesRecovered = recovered;
    rmbStats_.messagesLost = lost;
    rmbStats_.maxCycleSkew = skew;
    // faultsInjected / faultsRepaired are parent-owned (the mirror
    // increments them at injection time); per-leg samplers stay in
    // the ring registries (docs/HIERARCHY.md).
}

// --- fault domain ---

GapId
RingGraph::faultDomainGaps() const
{
    const Shard &last = *shards_.back();
    return last.gapBase + last.engine->numNodes();
}

Level
RingGraph::faultDomainLevels(GapId gap) const
{
    return static_cast<Level>(
        shards_[ringOfGap(gap)]->engine->config().numBuses);
}

std::uint32_t
RingGraph::ringOfGap(GapId gap) const
{
    rmb_assert(gap < faultDomainGaps(), "fault gap out of domain");
    const auto it = std::upper_bound(
        shards_.begin(), shards_.end(), gap,
        [](GapId g, const std::unique_ptr<Shard> &sh) {
            return g < sh->gapBase;
        });
    return static_cast<std::uint32_t>(it - shards_.begin()) - 1;
}

std::uint32_t
RingGraph::faultIndex(GapId gap, Level level) const
{
    const Shard &sh = *shards_[ringOfGap(gap)];
    const std::uint32_t levels = sh.engine->config().numBuses;
    rmb_assert(level >= 0 && static_cast<std::uint32_t>(level) < levels,
               "fault level out of domain");
    return sh.segBase + (gap - sh.gapBase) * levels +
           static_cast<std::uint32_t>(level);
}

void
RingGraph::emitSegmentEvent(obs::EventKind kind, GapId gap, Level level)
{
    if (!tracing())
        return;
    obs::TraceEvent e;
    e.kind = kind;
    e.at = simulator().now();
    e.node = gap;
    e.gap = gap;
    e.level = level;
    emitTrace(e);
}

void
RingGraph::forwardSegment(GapId gap, Level level, bool fail)
{
    Shard &sh = *shards_[ringOfGap(gap)];
    Engine *eng = sh.engine.get();
    const GapId sub_gap = gap - sh.gapBase;
    if (!sharded()) {
        if (fail)
            eng->failSegment(sub_gap, level);
        else
            eng->repairSegment(sub_gap, level);
        return;
    }
    sh.sim->scheduleAt(std::max(simulator().now(), sh.sim->now()),
                       [eng, sub_gap, level, fail] {
                           if (fail)
                               eng->failSegment(sub_gap, level);
                           else
                               eng->repairSegment(sub_gap, level);
                       });
    ensureArmed();
}

void
RingGraph::failSegment(GapId gap, Level level)
{
    const std::uint32_t idx = faultIndex(gap, level);
    rmb_assert(!faultMirror_[idx],
               "failSegment on an already-faulty segment");
    faultMirror_[idx] = 1;
    ++faultyCount_;
    ++rmbStats_.faultsInjected;
    emitSegmentEvent(obs::EventKind::SegmentFail, gap, level);
    forwardSegment(gap, level, true);
}

void
RingGraph::repairSegment(GapId gap, Level level)
{
    const std::uint32_t idx = faultIndex(gap, level);
    rmb_assert(faultMirror_[idx], "repairSegment on a healthy segment");
    faultMirror_[idx] = 0;
    --faultyCount_;
    ++rmbStats_.faultsRepaired;
    emitSegmentEvent(obs::EventKind::SegmentRepair, gap, level);
    forwardSegment(gap, level, false);
}

// --- bridge fault domain ---

std::uint32_t
RingGraph::faultDomainBridges() const
{
    return static_cast<std::uint32_t>(bridges_.size());
}

void
RingGraph::failBridge(std::uint32_t bridge, bool permanent)
{
    rmb_assert(bridge < bridges_.size(),
               "failBridge index out of range");
    Bridge &br = bridges_[bridge];
    rmb_assert(!br.dead, "failBridge on an already-dead bridge");
    br.dead = true;
    br.permanent = permanent;
    if (permanent)
        ++permanentDeadBridges_;
    ++rmbStats_.bridgeFaults;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::BridgeFail;
        e.at = simulator().now();
        e.node = bridge;
        e.a = permanent ? 1 : 0;
        emitTrace(e);
    }
}

void
RingGraph::repairBridge(std::uint32_t bridge)
{
    rmb_assert(bridge < bridges_.size(),
               "repairBridge index out of range");
    Bridge &br = bridges_[bridge];
    if (!br.dead)
        return;
    if (br.permanent)
        --permanentDeadBridges_;
    br.dead = false;
    br.permanent = false;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::BridgeRepair;
        e.at = simulator().now();
        e.node = bridge;
        emitTrace(e);
    }
}

bool
RingGraph::bridgeFaulty(std::uint32_t bridge) const
{
    rmb_assert(bridge < bridges_.size(),
               "bridgeFaulty index out of range");
    return bridges_[bridge].dead;
}

// --- graceful degradation (docs/FAULTS.md) ---

bool
RingGraph::routeDead(net::NodeId src, net::NodeId dst) const
{
    return routeDeadFrom(src, dst, 0, false);
}

bool
RingGraph::routeDeadFrom(net::NodeId src, net::NodeId dst,
                         std::uint32_t step, bool entered) const
{
    if (permanentSegments() == 0 && permanentDeadBridges_ == 0)
        return false;
    for (;; ++step, entered = false) {
        const RingLeg leg = route_(src, dst, step);
        if (leg.ring == RingLeg::kNone)
            return false;
        if (!entered && leg.bridge != RingLeg::kNone &&
            bridges_[leg.bridge].dead && bridges_[leg.bridge].permanent)
            return true;
        // The leg injects on its ring's top bus at `from` and crosses
        // the gaps from .. to-1 clockwise.
        const Shard &sh = *shards_[leg.ring];
        const net::NodeId n = sh.engine->numNodes();
        const auto top =
            static_cast<Level>(sh.engine->config().numBuses) - 1;
        if (segmentPermanent(sh.gapBase + leg.from, top))
            return true;
        for (net::NodeId g = leg.from; g != leg.to; g = (g + 1) % n) {
            if (gapFullyDead(sh.gapBase + g))
                return true;
        }
    }
}

// --- delivery supervisor hooks ---

bool
RingGraph::findLeg(net::MessageId id, std::uint32_t *shard,
                   net::MessageId *leg) const
{
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
        // rmblint:allow(determinism-hazard): unique-match search - a
        // message id owns at most one leg per ring.
        for (const auto &[leg_id, p] : shards_[s]->legs) {
            if (p.ours == id) {
                *shard = s;
                *leg = leg_id;
                return true;
            }
        }
    }
    return false;
}

std::uint64_t
RingGraph::progressStamp(net::MessageId id) const
{
    // Bridge deflections bump the parent message's nack/retry
    // counters, so the base stamp already tracks offer-queue
    // progress; an in-flight leg folds in its step plus the ring
    // engine's own fingerprint of the leg message.
    std::uint64_t h = Engine::progressStamp(id);
    const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
    };
    std::uint32_t shard = 0;
    net::MessageId leg = net::kNoMessage;
    if (findLeg(id, &shard, &leg)) {
        const Pending &p = shards_[shard]->legs.at(leg);
        mix(shard + 1);
        mix(leg);
        mix(p.step);
        mix(p.hops);
        mix(shards_[shard]->engine->progressStamp(leg));
    }
    return h;
}

bool
RingGraph::rescueStalled(net::MessageId id)
{
    const net::Message &m = message(id);
    if (m.state == net::MessageState::Delivered ||
        m.state == net::MessageState::Failed)
        return false;
    std::uint32_t shard = 0;
    net::MessageId leg = net::kNoMessage;
    if (!findLeg(id, &shard, &leg)) {
        // Between legs: a deflection retry parked in the offer
        // queue.  Every re-offer bumps the parent nack/retry
        // counters (= the stamp), so a genuinely stalled offer
        // cannot exist; look again next period.
        return false;
    }
    Shard &sh = *shards_[shard];

    // First choice: the ring engine rescues its own leg (the
    // sever-and-retry machinery inside the ring).
    if (sh.engine->rescueStalled(leg)) {
        ++rmbStats_.watchdogFires;
        ensureArmed();
        return true;
    }

    // The leg is exempt inside its ring (typically queued behind a
    // segment nothing will repair).  If permanent damage has cut
    // what remains of the route, return any held bridge slot, orphan
    // the leg and write the message off; otherwise leave it be.
    const Pending p = sh.legs.at(leg);
    if (!routeDeadFrom(p.src, p.dst, p.step, true))
        return false;

    const sim::Tick now = simulator().now();
    const std::uint32_t held = route_(p.src, p.dst, p.step).bridge;
    if (held != RingLeg::kNone)
        releaseBridge(held, p, now);
    sh.legs.erase(leg);
    sh.orphans.insert(leg);
    ++rmbStats_.watchdogFires;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::WatchdogFire;
        e.at = now;
        e.message = id;
        e.node = p.src;
        emitTrace(e);
    }
    deadLetterMessage(messageRef(id), rmbStats_, obs::kDeadStalled);
    return true;
}

// --- census ---

bool
RingGraph::segmentOccupied(GapId gap, Level level) const
{
    const Shard &sh = *shards_[ringOfGap(gap)];
    return sh.engine->segmentOccupied(gap - sh.gapBase, level);
}

bool
RingGraph::segmentFaulty(GapId gap, Level level) const
{
    return faultMirror_[faultIndex(gap, level)] != 0;
}

std::uint32_t
RingGraph::faultySegments() const
{
    return faultyCount_;
}

std::uint64_t
RingGraph::occupiedSegments() const
{
    std::uint64_t total = 0;
    for (const auto &sh : shards_)
        total += sh->engine->occupiedSegments();
    return total;
}

double
RingGraph::segmentUtilization(GapId gap, Level level,
                              sim::Tick now) const
{
    const Shard &sh = *shards_[ringOfGap(gap)];
    return sh.engine->segmentUtilization(gap - sh.gapBase, level, now);
}

double
RingGraph::averageSegmentUtilization(sim::Tick now) const
{
    double weighted = 0.0;
    std::uint64_t segments = 0;
    for (const auto &sh : shards_) {
        const RmbConfig &sc = sh->engine->config();
        const std::uint64_t n =
            static_cast<std::uint64_t>(sc.numNodes) * sc.numBuses;
        weighted += sh->engine->averageSegmentUtilization(now) *
                    static_cast<double>(n);
        segments += n;
    }
    return segments == 0 ? 0.0
                         : weighted / static_cast<double>(segments);
}

void
RingGraph::auditInvariants() const
{
    std::int64_t held = 0;
    for (std::uint32_t b = 0; b < bridges_.size(); ++b) {
        rmb_assert(bridges_[b].occupancy <= config_.bridgeBuffer,
                   "bridge ", b, " over capacity");
        held += bridges_[b].occupancy;
    }
    if (bridgeStats_)
        rmb_assert(held == bridgeStats_->occupancy.current(),
                   "bridge occupancy tracker out of sync");
    for (const auto &sh : shards_)
        sh->engine->auditInvariants();
}

// --- shapes ---

std::uint64_t
localRingSeed(const RmbConfig &config, std::uint32_t ring)
{
    return sim::Random(config.seed).split(kRingSeedStream + ring).next();
}

std::unique_ptr<RingGraph>
makeHier(sim::Simulator &simulator, const RmbConfig &config)
{
    validatedEngineConfig(config); // before dividing by localRings
    const std::uint32_t m = config.localRings;
    const std::uint32_t l = config.numNodes / m;
    RingShape shape;
    shape.name = "hier-rmb";
    for (std::uint32_t r = 0; r < m; ++r)
        shape.rings.push_back(
            {l, config.numBuses, localRingSeed(config, r)});
    if (m > 1) {
        shape.rings.push_back(
            {m, config.globalBuses != 0 ? config.globalBuses
                                        : config.numBuses,
             localRingSeed(config, m)});
        for (std::uint32_t b = 0; b < m; ++b)
            shape.bridges.push_back(b * l);
    }
    // Up to three legs: the source ring to its bridge node (local
    // index 0), bridge rs -> bridge rd on the global ring (ring m),
    // then from bridge rd into the destination ring.  A leg drops out
    // when its endpoint already is the bridge node.
    shape.route = [m, l](net::NodeId src, net::NodeId dst,
                         std::uint32_t step) {
        const std::uint32_t rs = src / l;
        const std::uint32_t rd = dst / l;
        const net::NodeId ls = src % l;
        const net::NodeId ld = dst % l;
        RingLeg legs[3];
        std::uint32_t n = 0;
        if (rs == rd) {
            legs[n++] = {rs, ls, ld};
        } else {
            if (ls != 0)
                legs[n++] = {rs, ls, 0};
            legs[n++] = {m, rs, rd, rs};
            if (ld != 0)
                legs[n++] = {rd, 0, ld, rd};
        }
        return step < n ? legs[step] : RingLeg{};
    };
    return std::make_unique<RingGraph>(simulator, config,
                                       std::move(shape));
}

std::unique_ptr<RingGraph>
makeDualRing(sim::Simulator &simulator, const RmbConfig &config)
{
    const std::uint32_t n = config.numNodes;
    RingShape shape;
    shape.name = "RMB(dual-ring)";
    // Decorrelate the planes' clock jitter and backoff draws.
    shape.rings = {{n, config.numBuses, config.seed},
                   {n, config.numBuses, config.seed * 2654435761u + 1}};
    shape.route = [n](net::NodeId src, net::NodeId dst,
                      std::uint32_t step) {
        if (step != 0)
            return RingLeg{};
        const std::uint32_t cw = (dst + n - src) % n;
        if (cw <= n - cw)
            return RingLeg{0, src, dst};
        return RingLeg{1, (n - src) % n, (n - dst) % n};
    };
    return std::make_unique<RingGraph>(simulator, config,
                                       std::move(shape));
}

std::unique_ptr<RingGraph>
makeGrid(sim::Simulator &simulator, std::vector<std::uint32_t> dims,
         const RmbConfig &config, std::string name)
{
    if (dims.empty())
        fatal("grid needs at least one dimension");
    std::vector<std::uint32_t> stride(dims.size());
    std::uint64_t nodes = 1;
    for (std::size_t d = 0; d < dims.size(); ++d) {
        if (dims[d] < 2)
            fatal("grid needs width and height (every extent)"
                  " >= 2, got ", dims[d]);
        stride[d] = static_cast<std::uint32_t>(nodes);
        nodes *= dims[d];
        if (nodes > (1u << 24))
            fatal("grid too large");
    }

    RmbConfig cfg = config;
    cfg.numNodes = static_cast<std::uint32_t>(nodes);
    RingShape shape;
    shape.name = std::move(name);
    // Every line along dimension d is one ring; ringBase[d] is the
    // index of the first.
    std::vector<std::uint32_t> ring_base(dims.size());
    for (std::uint32_t d = 0; d < dims.size(); ++d) {
        ring_base[d] = static_cast<std::uint32_t>(shape.rings.size());
        for (std::uint32_t ring = 0; ring < cfg.numNodes / dims[d];
             ++ring) {
            shape.rings.push_back({dims[d], config.numBuses,
                                   config.seed * 7919 + d * 104729 +
                                       ring});
        }
    }
    // Dimension order: leg i corrects the i-th differing coordinate,
    // starting from the node whose lower coordinates are already the
    // destination's.
    shape.route = [dims, stride, ring_base](net::NodeId src,
                                            net::NodeId dst,
                                            std::uint32_t step) {
        for (std::uint32_t d = 0; d < dims.size(); ++d) {
            const std::uint32_t here = (src / stride[d]) % dims[d];
            const std::uint32_t there = (dst / stride[d]) % dims[d];
            if (here == there || step-- != 0)
                continue;
            // The line through the turning node: its id with
            // coordinate d removed.
            const std::uint32_t line =
                dst % stride[d] + src / (stride[d] * dims[d]) * stride[d];
            return RingLeg{ring_base[d] + line, here, there};
        }
        return RingLeg{};
    };
    return std::make_unique<RingGraph>(simulator, cfg, std::move(shape));
}

std::unique_ptr<RingGraph>
makeTorus(sim::Simulator &simulator, std::uint32_t width,
          std::uint32_t height, const RmbConfig &config)
{
    return makeGrid(simulator, {width, height}, config, "RMB(torus)");
}

} // namespace core
} // namespace rmb
