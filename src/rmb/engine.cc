#include "rmb/engine.hh"

#include <bitset>
#include <sstream>

#include "common/logging.hh"
#include "rmb/kernel/kernel_engine.hh"
#include "rmb/network.hh"
#include "rmb/ring_graph.hh"
#include "rmb/supervisor.hh"

namespace rmb {
namespace core {

RmbStats::RmbStats(obs::MetricsRegistry &registry)
    : compactionMoves(registry.counter("rmb.compaction.moves")),
      blockedHeaders(registry.counter("rmb.blocked.headers")),
      blockedAborts(registry.counter("rmb.blocked.aborts")),
      timeoutAborts(registry.counter("rmb.timeout.aborts")),
      cycleFlips(registry.counter("rmb.cycle.flips")),
      dacks(registry.counter("rmb.dacks")),
      maxCycleSkew(registry.counter("rmb.cycle.max_skew")),
      multicasts(registry.counter("rmb.multicasts")),
      faultsInjected(registry.counter("rmb.faults.injected")),
      faultsRepaired(registry.counter("rmb.faults.repaired")),
      busesSevered(registry.counter("rmb.faults.severed")),
      messagesRecovered(registry.counter("rmb.faults.recovered")),
      messagesLost(registry.counter("rmb.faults.lost")),
      watchdogFires(registry.counter("rmb.watchdog.fires")),
      faultsPermanent(registry.counter("rmb.faults.permanent")),
      nodeFaults(registry.counter("rmb.faults.node")),
      bridgeFaults(registry.counter("rmb.faults.bridge")),
      deadLettered(registry.counter("rmb.deadletter.total")),
      deadRetriesExhausted(
          registry.counter("rmb.deadletter.retries_exhausted")),
      deadUnreachable(registry.counter("rmb.deadletter.unreachable")),
      deadStalled(registry.counter("rmb.deadletter.stalled")),
      deadBridgeDead(registry.counter("rmb.deadletter.bridge_dead")),
      topReleaseLatency(
          registry.sampler("rmb.top_release_latency")),
      recoveryLatency(
          registry.sampler("rmb.faults.recovery_latency")),
      recoveryLatencyHist(
          registry.histogram("rmb.hist.recovery_latency")),
      multicastMemberLatency(
          registry.sampler("rmb.multicast.member_latency")),
      blockedTime(registry.sampler("rmb.blocked.time")),
      liveBuses(registry.level("rmb.live_buses"))
{}

void
RmbStats::noteDeadLetter(obs::DeadLetterReason reason)
{
    ++deadLettered;
    switch (reason) {
    case obs::kDeadRetriesExhausted:
        ++deadRetriesExhausted;
        return;
    case obs::kDeadUnreachable:
        ++deadUnreachable;
        return;
    case obs::kDeadStalled:
        ++deadStalled;
        return;
    case obs::kDeadBridgeDead:
        ++deadBridgeDead;
        return;
    }
    panic("unknown DeadLetterReason ",
          static_cast<std::uint64_t>(reason));
}

Engine::Engine(sim::Simulator &simulator, std::string name,
               net::NodeId num_nodes)
    : net::Network(simulator, std::move(name), num_nodes)
{
}

Engine::~Engine() = default;

void
Engine::ensurePermanentMask() const
{
    if (permanentMask_.empty())
        permanentMask_.resize(faultDomainGaps(), 0);
}

void
Engine::markSegmentPermanent(GapId gap, Level level)
{
    ensurePermanentMask();
    rmb_assert(gap < permanentMask_.size(),
               "permanent fault gap out of the fault domain");
    rmb_assert(level >= 0 && level < 64,
               "permanent-fault bookkeeping holds at most 64 levels"
               " per gap");
    const std::uint64_t bit = std::uint64_t{1} << level;
    if ((permanentMask_[gap] & bit) != 0)
        return;
    permanentMask_[gap] |= bit;
    ++permanentCount_;
}

void
Engine::clearSegmentPermanent(GapId gap, Level level)
{
    ensurePermanentMask();
    rmb_assert(gap < permanentMask_.size(),
               "permanent repair gap out of the fault domain");
    const std::uint64_t bit = std::uint64_t{1} << level;
    if ((permanentMask_[gap] & bit) == 0)
        return;
    permanentMask_[gap] &= ~bit;
    --permanentCount_;
}

bool
Engine::segmentPermanent(GapId gap, Level level) const
{
    if (permanentCount_ == 0)
        return false;
    ensurePermanentMask();
    if (gap >= permanentMask_.size() || level < 0 || level >= 64)
        return false;
    return (permanentMask_[gap] >> level) & 1;
}

std::uint64_t
Engine::deadLevelMask(GapId gap) const
{
    if (permanentCount_ == 0)
        return 0;
    ensurePermanentMask();
    return gap < permanentMask_.size() ? permanentMask_[gap] : 0;
}

Level
Engine::deadLevelsAt(GapId gap) const
{
    return static_cast<Level>(
        std::bitset<64>(deadLevelMask(gap)).count());
}

bool
Engine::gapFullyDead(GapId gap) const
{
    if (permanentCount_ == 0)
        return false;
    const Level levels = faultDomainLevels(gap);
    return levels > 0 && deadLevelsAt(gap) >= levels;
}

double
Engine::effectiveBuses() const
{
    const GapId gaps = faultDomainGaps();
    if (gaps == 0)
        return 0.0;
    std::uint64_t live = 0;
    for (GapId g = 0; g < gaps; ++g) {
        const Level levels = faultDomainLevels(g);
        const Level dead = deadLevelsAt(g);
        live += dead >= levels ? 0 : levels - dead;
    }
    return static_cast<double>(live) / gaps;
}

double
Engine::residualBandwidth() const
{
    const GapId gaps = faultDomainGaps();
    std::uint64_t total = 0;
    std::uint64_t live = 0;
    for (GapId g = 0; g < gaps; ++g) {
        const Level levels = faultDomainLevels(g);
        const Level dead = deadLevelsAt(g);
        total += levels;
        live += dead >= levels ? 0 : levels - dead;
    }
    return total == 0
               ? 1.0
               : static_cast<double>(live) / static_cast<double>(total);
}

bool
Engine::routeDead(net::NodeId src, net::NodeId dst) const
{
    if (permanentCount_ == 0)
        return false;
    const std::uint32_t n = config().numNodes;
    // Injection happens on the top bus of the source's own gap; a
    // permanently dead top means the message can never leave home.
    const Level top = static_cast<Level>(config().numBuses) - 1;
    if (segmentPermanent(src, top))
        return true;
    // The one-way ring has a single path: the clockwise gaps
    // src, src+1, ..., dst-1.  Any fully dead gap on it cuts the ring.
    for (GapId g = src; g != dst; g = (g + 1) % n) {
        if (gapFullyDead(g))
            return true;
    }
    return false;
}

void
Engine::failBridge(std::uint32_t bridge, bool permanent)
{
    (void)permanent;
    panic("failBridge(", bridge, "): engine '", name(),
          "' has no bridges (faultDomainBridges() == 0)");
}

void
Engine::repairBridge(std::uint32_t bridge)
{
    panic("repairBridge(", bridge, "): engine '", name(),
          "' has no bridges (faultDomainBridges() == 0)");
}

std::uint64_t
Engine::progressStamp(net::MessageId id) const
{
    // FNV-1a over the generic message fields every backend shares;
    // engines fold their bus / leg state on top of this.
    const net::Message &m = message(id);
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(m.state));
    mix(m.retries);
    mix(m.nacks);
    mix(m.pathHops);
    return h;
}

void
Engine::superviseActivity()
{
    if (config().watchdogTimeout == 0)
        return;
    if (!supervisor_)
        supervisor_ = std::make_unique<DeliverySupervisor>(*this,
                                                           simulator());
    supervisor_->noteActivity();
}

void
Engine::deadLetterMessage(net::Message &m, RmbStats &stats,
                          obs::DeadLetterReason reason)
{
    stats.noteDeadLetter(reason);
    if (tracing()) {
        obs::TraceEvent event;
        event.kind = obs::EventKind::DeadLetter;
        event.at = simulator().now();
        event.message = m.id;
        event.node = m.src;
        event.a = reason;
        emitTrace(event);
    }
    noteFailed(m);
}

const RmbConfig &
validatedEngineConfig(const RmbConfig &config)
{
    const std::vector<std::string> problems = config.validate();
    if (!problems.empty()) {
        std::string joined;
        for (const std::string &p : problems) {
            if (!joined.empty())
                joined += "; ";
            joined += p;
        }
        fatal("invalid RmbConfig: ", joined);
    }
    return config;
}

std::unique_ptr<Engine>
makeEngine(sim::Simulator &simulator, const RmbConfig &config)
{
    // Topology outranks the engine switch: the hierarchy is a
    // composition whose constituent rings each run config.engine.
    if (config.topology == TopologyKind::Hier)
        return makeHier(simulator, config);
    switch (config.engine) {
    case EngineKind::Event:
        return std::make_unique<RmbNetwork>(simulator, config);
    case EngineKind::Kernel:
        return std::make_unique<CycleKernelEngine>(simulator,
                                                   config);
    }
    fatal("unknown EngineKind ",
          static_cast<unsigned>(config.engine));
}

std::string
outcomeDigest(const net::Network &network)
{
    std::ostringstream out;
    for (net::MessageId id = 1; id <= network.numMessages(); ++id) {
        const net::Message &m = network.message(id);
        out << m.id << ':' << m.src << '>' << m.dst << ':'
            << m.payloadFlits << ':';
        switch (m.state) {
        case net::MessageState::Queued:
            out << 'Q';
            break;
        case net::MessageState::Setup:
            out << 'S';
            break;
        case net::MessageState::Streaming:
            out << 's';
            break;
        case net::MessageState::Delivered:
            out << 'D';
            break;
        case net::MessageState::Failed:
            out << 'F';
            break;
        }
        out << ':' << m.pathHops << '\n';
    }
    return out.str();
}

} // namespace core
} // namespace rmb
