#include "netbase/network.hh"

#include <iostream>

#include "common/logging.hh"

namespace rmb {
namespace net {

NetworkStats::NetworkStats(obs::MetricsRegistry &registry)
    : injected(registry.counter("net.injected")),
      delivered(registry.counter("net.delivered")),
      failed(registry.counter("net.failed")),
      nacks(registry.counter("net.nacks")),
      retries(registry.counter("net.retries")),
      queueDelay(registry.sampler("net.queue_delay")),
      setupLatency(registry.sampler("net.setup_latency")),
      totalLatency(registry.sampler("net.total_latency")),
      pathLength(registry.sampler("net.path_length")),
      activeCircuits(registry.level("net.active_circuits")),
      dataPhaseHist(registry.histogram("net.hist.data_phase"))
{}

Network::Network(sim::Simulator &simulator, std::string name,
                 NodeId num_nodes)
    : simulator_(simulator), stats_(metrics_),
      name_(std::move(name)), numNodes_(num_nodes)
{
    rmb_assert(numNodes_ >= 2, "a network needs at least two nodes");
}

Network::~Network()
{
    if (panicHookId_ != 0)
        removePanicHook(panicHookId_);
}

void
Network::setTraceSink(obs::TraceSink *sink)
{
    if (panicHookId_ != 0) {
        removePanicHook(panicHookId_);
        panicHookId_ = 0;
    }
    traceSink_ = sink;
    if (sink != nullptr) {
        panicHookId_ = addPanicHook(
            [sink] { sink->postMortem(std::cerr); });
    }
}

Message &
Network::createMessage(NodeId src, NodeId dst,
                       std::uint32_t payload_flits)
{
    rmb_assert(src < numNodes_ && dst < numNodes_,
               "node id out of range: src=", src, " dst=", dst,
               " N=", numNodes_);
    rmb_assert(src != dst, "self-messages are not supported");
    Message m;
    // Ids are 1-based so kNoMessage (0) stays free.
    m.id = messages_.size() + 1;
    m.src = src;
    m.dst = dst;
    m.payloadFlits = payload_flits;
    m.created = simulator_.now();
    messages_.push_back(m);
    ++stats_.injected;
    return messages_.back();
}

const Message &
Network::message(MessageId id) const
{
    rmb_assert(id != kNoMessage && id <= messages_.size(),
               "unknown message id ", id, " (valid ids are 1..",
               messages_.size(), ")");
    return messages_[id - 1];
}

Message &
Network::messageRef(MessageId id)
{
    rmb_assert(id != kNoMessage && id <= messages_.size(),
               "unknown message id ", id, " (valid ids are 1..",
               messages_.size(), ")");
    return messages_[id - 1];
}

void
Network::noteFirstAttempt(Message &m)
{
    m.firstAttempt = simulator_.now();
    m.state = MessageState::Setup;
    stats_.queueDelay.add(
        static_cast<double>(m.firstAttempt - m.created));
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::Inject;
        e.at = m.firstAttempt;
        e.message = m.id;
        e.node = m.src;
        e.a = m.dst;
        e.b = m.payloadFlits;
        emitTrace(e);
    }
}

void
Network::noteEstablished(Message &m)
{
    m.established = simulator_.now();
    m.state = MessageState::Streaming;
    stats_.setupLatency.add(
        static_cast<double>(m.established - m.firstAttempt));
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::Hack;
        e.at = m.established;
        e.message = m.id;
        e.node = m.src;
        emitTrace(e);
    }
}

void
Network::noteNack(Message &m)
{
    ++m.nacks;
    ++stats_.nacks;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::Nack;
        e.at = simulator_.now();
        e.message = m.id;
        e.node = m.dst;
        e.a = obs::kNackDestBusy;
        emitTrace(e);
    }
}

void
Network::noteRetry(Message &m)
{
    ++m.retries;
    ++stats_.retries;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::Retry;
        e.at = simulator_.now();
        e.message = m.id;
        e.node = m.src;
        e.a = m.retries;
        emitTrace(e);
    }
}

void
Network::noteDelivered(Message &m, std::uint32_t path_hops)
{
    noteDelivered(m, path_hops, simulator_.now());
}

void
Network::noteDelivered(Message &m, std::uint32_t path_hops,
                       sim::Tick when)
{
    m.delivered = when;
    m.state = MessageState::Delivered;
    m.pathHops = path_hops;
    ++stats_.delivered;
    stats_.totalLatency.add(static_cast<double>(m.totalLatency()));
    stats_.pathLength.add(static_cast<double>(path_hops));
    // Some baselines deliver without a distinct establishment step;
    // only a real Hack gives the data phase a defined start.
    if (m.established != 0)
        stats_.dataPhaseHist.add(m.delivered - m.established);
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::Deliver;
        e.at = m.delivered;
        e.message = m.id;
        e.node = m.dst;
        e.a = path_hops;
        emitTrace(e);
    }
    if (deliveryCallback_)
        deliveryCallback_(m);
}

void
Network::noteFailed(Message &m)
{
    m.state = MessageState::Failed;
    ++stats_.failed;
    if (tracing()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::Fail;
        e.at = simulator_.now();
        e.message = m.id;
        e.node = m.src;
        e.a = m.retries;
        emitTrace(e);
    }
    if (failureCallback_)
        failureCallback_(m);
}

void
Network::noteCircuit(std::int64_t delta)
{
    stats_.activeCircuits.adjust(simulator_.now(), delta);
}

} // namespace net
} // namespace rmb
