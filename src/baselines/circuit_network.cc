#include "baselines/circuit_network.hh"

#include "common/logging.hh"

namespace rmb {
namespace baseline {

CircuitNetwork::CircuitNetwork(sim::Simulator &simulator,
                               std::string name,
                               net::NodeId num_nodes,
                               const CircuitConfig &config)
    : net::Network(simulator, std::move(name), num_nodes),
      config_(config), rng_(config.seed), nodes_(num_nodes)
{
    if (config_.headerHopDelay < 1 || config_.ackHopDelay < 1 ||
        config_.flitDelay < 1) {
        fatal("hop delays must be >= 1 tick");
    }
    if (config_.retryBackoffMin < 1 ||
        config_.retryBackoffMin > config_.retryBackoffMax) {
        fatal("bad retry backoff range");
    }
}

LinkId
CircuitNetwork::addLink(std::uint32_t capacity)
{
    rmb_assert(capacity >= 1, "a link needs at least one channel");
    capacity_.push_back(capacity);
    inUse_.push_back(0);
    return static_cast<LinkId>(capacity_.size() - 1);
}

std::uint32_t
CircuitNetwork::linkCapacity(LinkId link) const
{
    rmb_assert(link < capacity_.size(), "bad link id");
    return capacity_[link];
}

std::uint32_t
CircuitNetwork::numLinks() const
{
    return static_cast<std::uint32_t>(capacity_.size());
}

net::MessageId
CircuitNetwork::send(net::NodeId src, net::NodeId dst,
                     std::uint32_t payload_flits)
{
    net::Message &m = createMessage(src, dst, payload_flits);
    nodes_[src].sendQueue.push_back(m.id);
    const net::MessageId id = m.id;
    simulator().schedule(0, [this, src] { tryInject(src); });
    return id;
}

void
CircuitNetwork::tryInject(net::NodeId node)
{
    Node &n = nodes_[node];
    if (n.activeSend != net::kNoMessage || n.sendQueue.empty())
        return;
    if (simulator().now() < n.backoffUntil)
        return;

    const net::MessageId mid = n.sendQueue.front();
    n.sendQueue.pop_front();
    n.activeSend = mid;

    net::Message &m = messageRef(mid);
    if (m.state == net::MessageState::Queued)
        noteFirstAttempt(m);
    else
        noteRetry(m);

    const std::uint64_t cid = nextCircuitId_++;
    Circuit &c = circuits_[cid];
    c.message = mid;
    c.src = m.src;
    c.dst = m.dst;
    c.path = route(m.src, m.dst);
    rmb_assert(!c.path.empty(), "empty route from ", m.src, " to ",
               m.dst);
    setupStep(cid);
}

void
CircuitNetwork::setupStep(std::uint64_t circuit_id)
{
    auto it = circuits_.find(circuit_id);
    rmb_assert(it != circuits_.end(), "setup step on a dead circuit");
    Circuit &c = it->second;

    if (c.reserved == c.path.size()) {
        // Header has arrived at the destination.
        Node &dst = nodes_[c.dst];
        if (dst.activeReceive != net::kNoMessage) {
            noteNack(messageRef(c.message));
            unwind(circuit_id, true);
            return;
        }
        dst.activeReceive = c.message;
        const auto path_ticks =
            static_cast<sim::Tick>(c.path.size()) *
            config_.ackHopDelay;
        simulator().schedule(path_ticks, [this, circuit_id] {
            hackArrive(circuit_id);
        });
        return;
    }

    const LinkId link = c.path[c.reserved];
    if (inUse_[link] >= capacity_[link]) {
        ++blockedAborts_;
        unwind(circuit_id, false);
        return;
    }
    ++inUse_[link];
    ++c.reserved;
    simulator().schedule(config_.headerHopDelay, [this, circuit_id] {
        setupStep(circuit_id);
    });
}

void
CircuitNetwork::unwind(std::uint64_t circuit_id, bool dst_nack)
{
    (void)dst_nack;
    auto it = circuits_.find(circuit_id);
    rmb_assert(it != circuits_.end(), "unwind of a dead circuit");
    if (it->second.reserved == 0) {
        finish(circuit_id, true);
        return;
    }
    simulator().schedule(config_.ackHopDelay, [this, circuit_id] {
        unwindStep(circuit_id);
    });
}

void
CircuitNetwork::unwindStep(std::uint64_t circuit_id)
{
    auto it = circuits_.find(circuit_id);
    rmb_assert(it != circuits_.end(), "unwind of a dead circuit");
    Circuit &c = it->second;
    rmb_assert(c.reserved > 0, "unwind step with nothing reserved");
    --c.reserved;
    const LinkId link = c.path[c.reserved];
    rmb_assert(inUse_[link] > 0, "releasing an idle link");
    --inUse_[link];
    if (c.reserved == 0) {
        finish(circuit_id, true);
        return;
    }
    simulator().schedule(config_.ackHopDelay, [this, circuit_id] {
        unwindStep(circuit_id);
    });
}

void
CircuitNetwork::hackArrive(std::uint64_t circuit_id)
{
    auto it = circuits_.find(circuit_id);
    rmb_assert(it != circuits_.end(), "Hack for a dead circuit");
    Circuit &c = it->second;
    noteEstablished(messageRef(c.message));
    noteCircuit(+1);
    const net::Message &m = message(c.message);
    const sim::Tick duration =
        (static_cast<sim::Tick>(m.payloadFlits) + 1 +
         static_cast<sim::Tick>(c.path.size())) *
        config_.flitDelay;
    simulator().schedule(duration, [this, circuit_id] {
        finalFlit(circuit_id);
    });
}

void
CircuitNetwork::finalFlit(std::uint64_t circuit_id)
{
    auto it = circuits_.find(circuit_id);
    rmb_assert(it != circuits_.end(), "FF for a dead circuit");
    Circuit &c = it->second;
    noteDelivered(messageRef(c.message),
                  static_cast<std::uint32_t>(c.path.size()));
    noteCircuit(-1);
    nodes_[c.dst].activeReceive = net::kNoMessage;
    simulator().schedule(config_.ackHopDelay, [this, circuit_id] {
        teardownStep(circuit_id);
    });
}

void
CircuitNetwork::teardownStep(std::uint64_t circuit_id)
{
    auto it = circuits_.find(circuit_id);
    rmb_assert(it != circuits_.end(), "teardown of a dead circuit");
    Circuit &c = it->second;
    rmb_assert(c.reserved > 0, "teardown with nothing reserved");
    --c.reserved;
    const LinkId link = c.path[c.reserved];
    rmb_assert(inUse_[link] > 0, "releasing an idle link");
    --inUse_[link];
    if (c.reserved == 0) {
        finish(circuit_id, false);
        return;
    }
    simulator().schedule(config_.ackHopDelay, [this, circuit_id] {
        teardownStep(circuit_id);
    });
}

void
CircuitNetwork::finish(std::uint64_t circuit_id, bool requeue)
{
    auto it = circuits_.find(circuit_id);
    rmb_assert(it != circuits_.end(), "finish of a dead circuit");
    const net::MessageId mid = it->second.message;
    const net::NodeId src = it->second.src;
    circuits_.erase(it);

    Node &n = nodes_[src];
    rmb_assert(n.activeSend == mid, "send port bookkeeping broken");
    n.activeSend = net::kNoMessage;

    if (requeue) {
        net::Message &m = messageRef(mid);
        if (config_.maxRetries > 0 &&
            m.retries >= config_.maxRetries) {
            noteFailed(m);
        } else {
            n.sendQueue.push_front(mid);
            scheduleRetry(src);
            return;
        }
    }
    tryInject(src);
}

void
CircuitNetwork::scheduleRetry(net::NodeId node)
{
    // The retrying message sits at the queue front.
    const net::MessageId mid = nodes_[node].sendQueue.front();
    const sim::Tick backoff = sim::retryBackoff(
        rng_, message(mid).retries, config_.retryBackoffMin,
        config_.retryBackoffMax, config_.retryBackoffCap);
    nodes_[node].backoffUntil = simulator().now() + backoff;
    simulator().schedule(backoff, [this, node] { tryInject(node); });
}

} // namespace baseline
} // namespace rmb
