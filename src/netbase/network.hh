/**
 * @file
 * Abstract interconnection-network interface.
 *
 * The workload drivers and comparison benches run against this
 * interface so the RMB and every baseline (mesh, hypercube, EHC,
 * fat tree, arbitrated multibus) are measured by identical harness
 * code.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "netbase/message.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace rmb {
namespace net {

/**
 * Typed view of the aggregate statistics every network maintains.
 * The metrics themselves live in the owning network's
 * obs::MetricsRegistry under the "net." prefix; this struct holds
 * references so existing field-style call sites keep working while
 * MetricsRegistry::snapshot() serialises everything generically.
 */
struct NetworkStats
{
    explicit NetworkStats(obs::MetricsRegistry &registry);
    NetworkStats(const NetworkStats &) = delete;
    NetworkStats &operator=(const NetworkStats &) = delete;

    obs::Counter &injected;    //!< messages handed to send()
    obs::Counter &delivered;   //!< messages fully delivered
    obs::Counter &failed;      //!< gave up (bounded retries)
    obs::Counter &nacks;       //!< destination-busy refusals
    obs::Counter &retries;     //!< re-injections

    sim::SampleStat &queueDelay;    //!< created -> first injection
    sim::SampleStat &setupLatency;  //!< injection -> established
    sim::SampleStat &totalLatency;  //!< created -> delivered
    sim::SampleStat &pathLength;    //!< hops traversed

    /** Concurrently open circuits (virtual buses). */
    sim::LevelTracker &activeCircuits;

    /** Established -> delivered (data-phase) times, rendered as a
     *  power-of-two histogram. */
    sim::SampleStat &dataPhaseHist;
};

/**
 * Base class for circuit-switched networks simulated on the shared
 * DES kernel.  Handles message registry, statistics and delivery
 * callbacks; subclasses implement the actual switching fabric.
 */
class Network
{
  public:
    using DeliveryCallback = std::function<void(const Message &)>;

    Network(sim::Simulator &simulator, std::string name,
            NodeId num_nodes);
    virtual ~Network();

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /** Human-readable architecture name (used in bench tables). */
    const std::string &name() const { return name_; }

    /** Number of processing nodes. */
    NodeId numNodes() const { return numNodes_; }

    /**
     * Enqueue a message of @p payload_flits data flits from @p src to
     * @p dst.  The network injects it as soon as the source's
     * injection rules allow.  @p src must differ from @p dst.
     * @return the id used to query the message later.
     */
    virtual MessageId send(NodeId src, NodeId dst,
                           std::uint32_t payload_flits) = 0;

    /** Look up a message by id. */
    const Message &message(MessageId id) const;

    /** Total messages ever created (ids run 1..numMessages()). */
    std::uint64_t numMessages() const { return messages_.size(); }

    /** @return true once every sent message was delivered or has
     *  permanently failed. */
    bool
    quiescent() const
    {
        return stats_.delivered + stats_.failed == stats_.injected;
    }

    /** Aggregate statistics. */
    const NetworkStats &
    stats() const
    {
        foldStats();
        return stats_;
    }

    /** The registry every statistic of this network lives in. */
    obs::MetricsRegistry &metrics() { return metrics_; }
    const obs::MetricsRegistry &
    metrics() const
    {
        foldStats();
        return metrics_;
    }

    /**
     * Attach @p sink to receive one TraceEvent per protocol action
     * (nullptr detaches).  The sink is borrowed, not owned, and must
     * outlive the network or be detached first; with no sink
     * attached, emission sites cost a single branch.  While a sink
     * is attached its postMortem() is registered as a panic hook, so
     * flight recorders (RingBufferSink) dump their tail to stderr
     * when an invariant audit fails.
     */
    void setTraceSink(obs::TraceSink *sink);

    /** The currently attached sink (nullptr when tracing is off). */
    obs::TraceSink *traceSink() const { return traceSink_; }

    /** Invoked whenever a message is delivered. */
    void
    setDeliveryCallback(DeliveryCallback cb)
    {
        deliveryCallback_ = std::move(cb);
    }

    /** Invoked whenever a message permanently fails. */
    void
    setFailureCallback(DeliveryCallback cb)
    {
        failureCallback_ = std::move(cb);
    }

    sim::Simulator &simulator() { return simulator_; }
    const sim::Simulator &simulator() const { return simulator_; }

  protected:
    /** Refresh the statistics a network derives from elsewhere (a
     *  composition folds its rings' in); the stats() and metrics()
     *  readers call it first. */
    virtual void foldStats() const {}

    /** Allocate and register a new message record. */
    Message &createMessage(NodeId src, NodeId dst,
                           std::uint32_t payload_flits);

    /** Mutable access for subclasses driving the lifecycle. */
    Message &messageRef(MessageId id);

    /** Record the first injection attempt of @p m at time now. */
    void noteFirstAttempt(Message &m);

    /** Record circuit establishment (Hack at source). */
    void noteEstablished(Message &m);

    /** Record a destination-busy Nack. */
    void noteNack(Message &m);

    /** Record a re-injection. */
    void noteRetry(Message &m);

    /** Record delivery at time now, update stats, fire the callback. */
    void noteDelivered(Message &m, std::uint32_t path_hops);

    /**
     * Record delivery that logically happened at @p when (<= now).
     * Composed networks (grids, hierarchies) learn of an inner leg's
     * completion at a synchronisation point after the fact; the
     * delivery timestamp and trace event must carry the protocol
     * time, not the bookkeeping time.
     */
    void noteDelivered(Message &m, std::uint32_t path_hops,
                       sim::Tick when);

    /** Record permanent failure (bounded retries exhausted). */
    void noteFailed(Message &m);

    /** Track open-circuit count (+1 on open, -1 on close). */
    void noteCircuit(std::int64_t delta);

    /** True when a trace sink is attached (guard event assembly). */
    bool tracing() const { return traceSink_ != nullptr; }

    /** Deliver @p event to the attached sink, if any. */
    void
    emitTrace(const obs::TraceEvent &event)
    {
        if (traceSink_)
            traceSink_->onEvent(event);
    }

  private:
    sim::Simulator &simulator_;
    /** Declared before stats_: the stats views reference into it. */
    obs::MetricsRegistry metrics_;

  protected:
    NetworkStats stats_;

  private:
    std::string name_;
    NodeId numNodes_;
    std::deque<Message> messages_;
    DeliveryCallback deliveryCallback_;
    DeliveryCallback failureCallback_;
    obs::TraceSink *traceSink_ = nullptr;
    std::uint64_t panicHookId_ = 0; //!< 0 = no hook registered
};

} // namespace net
} // namespace rmb
