/**
 * @file
 * Stochastic traffic patterns for open-loop load experiments.
 */

#pragma once

#include <cstdint>
#include <memory>

#include "netbase/message.hh"
#include "sim/random.hh"

namespace rmb {
namespace workload {

/**
 * Chooses a destination for each generated message.  Implementations
 * must never return the source itself.
 */
class TrafficPattern
{
  public:
    explicit TrafficPattern(net::NodeId n) : numNodes_(n) {}
    virtual ~TrafficPattern() = default;

    /** Pick a destination for a message from @p src. */
    virtual net::NodeId pick(net::NodeId src, sim::Random &rng) = 0;

    net::NodeId numNodes() const { return numNodes_; }

  protected:
    net::NodeId numNodes_;
};

/** Uniformly random destination (excluding the source). */
class UniformTraffic : public TrafficPattern
{
  public:
    using TrafficPattern::TrafficPattern;
    net::NodeId pick(net::NodeId src, sim::Random &rng) override;
};

/**
 * Hot-spot: with probability @p fraction the destination is the fixed
 * hot node, otherwise uniform.
 */
class HotSpotTraffic : public TrafficPattern
{
  public:
    HotSpotTraffic(net::NodeId n, net::NodeId hot, double fraction);
    net::NodeId pick(net::NodeId src, sim::Random &rng) override;

  private:
    net::NodeId hot_;
    double fraction_;
};

/**
 * Ring-local: destination is src + d (clockwise) where d is uniform
 * in [1, maxDistance].  Exercises the RMB's spatial bus reuse.
 */
class LocalRingTraffic : public TrafficPattern
{
  public:
    LocalRingTraffic(net::NodeId n, net::NodeId max_distance);
    net::NodeId pick(net::NodeId src, sim::Random &rng) override;

  private:
    net::NodeId maxDistance_;
};

/** Tornado: fixed destination src + ceil(N/2) - adversarial on rings. */
class TornadoTraffic : public TrafficPattern
{
  public:
    using TrafficPattern::TrafficPattern;
    net::NodeId pick(net::NodeId src, sim::Random &rng) override;
};

/** Bit-complement destinations (N = 2^m). */
class BitComplementTraffic : public TrafficPattern
{
  public:
    explicit BitComplementTraffic(net::NodeId n);
    net::NodeId pick(net::NodeId src, sim::Random &rng) override;
};

} // namespace workload
} // namespace rmb
