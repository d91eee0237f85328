/**
 * @file
 * Generic circuit-switched network engine for the baseline
 * topologies (paper section 3).
 *
 * The engine mirrors the RMB's protocol timing exactly - header flit
 * per hop, Hack back along the path, pipelined data flits, Fack
 * teardown - but reserves *links* (channels of a topology-defined
 * graph) instead of reconfigurable bus segments, so benches compare
 * topology and switching strategy rather than simulator artifacts.
 *
 * Subclasses define the link graph and a deterministic routing
 * function; multi-channel links (e.g. fat-tree capacities, EHC
 * doubled dimensions) are expressed as link capacities.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "netbase/network.hh"
#include "sim/random.hh"

namespace rmb {
namespace baseline {

/** Index of a directed link in the topology graph. */
using LinkId = std::uint32_t;

/** Timing/retry knobs shared by every baseline network. */
struct CircuitConfig
{
    sim::Tick headerHopDelay = 4;
    sim::Tick ackHopDelay = 2;
    sim::Tick flitDelay = 1;
    sim::Tick retryBackoffMin = 8;
    sim::Tick retryBackoffMax = 32;
    /** Doubled per consecutive retry up to this cap (as the RMB). */
    sim::Tick retryBackoffCap = 512;
    std::uint32_t maxRetries = 0; //!< 0 = unlimited
    std::uint64_t seed = 1;
};

/**
 * Base class implementing the circuit lifecycle over an abstract
 * link graph.  A blocked setup releases its partial path and retries
 * after a randomized backoff (deadlock-free, mirroring the RMB's
 * default NackRetry policy).
 */
class CircuitNetwork : public net::Network
{
  public:
    net::MessageId send(net::NodeId src, net::NodeId dst,
                        std::uint32_t payload_flits) override;

    /** Capacity of @p link. */
    std::uint32_t linkCapacity(LinkId link) const;

    /** Number of directed links in the graph. */
    std::uint32_t numLinks() const;

    /** Retry/blocking statistics (aborted setups, not dst-Nacks). */
    std::uint64_t blockedAborts() const { return blockedAborts_; }

    const CircuitConfig &circuitConfig() const { return config_; }

  protected:
    CircuitNetwork(sim::Simulator &simulator, std::string name,
                   net::NodeId num_nodes, const CircuitConfig &config);

    /**
     * Topology hook: the directed link sequence a message from
     * @p src to @p dst traverses.  Must be non-empty and
     * deterministic.
     */
    virtual std::vector<LinkId> route(net::NodeId src,
                                      net::NodeId dst) const = 0;

    /** Register a directed link with @p capacity channels.
     *  @return its LinkId. */
    LinkId addLink(std::uint32_t capacity);

  private:
    struct Circuit
    {
        net::MessageId message;
        net::NodeId src;
        net::NodeId dst;
        std::vector<LinkId> path;
        std::uint32_t reserved = 0; //!< links reserved so far
    };

    struct Node
    {
        std::deque<net::MessageId> sendQueue;
        net::MessageId activeSend = net::kNoMessage;
        net::MessageId activeReceive = net::kNoMessage;
        sim::Tick backoffUntil = 0;
    };

    void tryInject(net::NodeId node);
    void setupStep(std::uint64_t circuit_id);
    void unwind(std::uint64_t circuit_id, bool dst_nack);
    void unwindStep(std::uint64_t circuit_id);
    void hackArrive(std::uint64_t circuit_id);
    void finalFlit(std::uint64_t circuit_id);
    void teardownStep(std::uint64_t circuit_id);
    void finish(std::uint64_t circuit_id, bool requeue);
    void scheduleRetry(net::NodeId node);

    CircuitConfig config_;
    sim::Random rng_;
    std::vector<std::uint32_t> capacity_;
    std::vector<std::uint32_t> inUse_;
    std::vector<Node> nodes_;
    std::unordered_map<std::uint64_t, Circuit> circuits_;
    std::uint64_t nextCircuitId_ = 1;
    std::uint64_t blockedAborts_ = 0;
};

} // namespace baseline
} // namespace rmb
