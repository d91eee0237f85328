/**
 * @file
 * The pluggable RMB engine contract.
 *
 * Everything outside `src/rmb` that drives an RMB simulation -
 * benches, sweeps, fault injection, trace sinks, reports - depends
 * only on this interface.  Two flat backends implement it, on the
 * protocol steps they share through `RingEngine` (ring_engine.hh):
 *
 *  - `RmbNetwork` (network.hh): the reference discrete-event engine;
 *    every header hop, INC cycle tick and teardown step is one
 *    `sim::EventQueue` event, with per-INC clock skew.
 *  - `CycleKernelEngine` (kernel/kernel_engine.hh): a time-stepped
 *    structure-of-arrays kernel; segment occupancy and fault state
 *    live in uint64_t bitplanes, compaction candidates are filtered
 *    word-parallel, and the protocol agenda is a bucket timing wheel.
 *
 * Select a backend with `RmbConfig::engine` and construct through
 * `makeEngine()`; see docs/ENGINE.md for the full contract, the
 * bitset layout and how to add a third backend.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netbase/network.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "rmb/config.hh"
#include "rmb/types.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace rmb {
namespace core {

/**
 * Typed view of the RMB-specific counters beyond the common
 * NetworkStats.  Like NetworkStats, the metrics live in the owning
 * engine's obs::MetricsRegistry (under the "rmb." prefix); this
 * struct only names them.  Both engines maintain the same registry
 * names, so reports and gates read either backend unchanged.
 */
struct RmbStats
{
    explicit RmbStats(obs::MetricsRegistry &registry);
    RmbStats(const RmbStats &) = delete;
    RmbStats &operator=(const RmbStats &) = delete;

    /** Completed downward moves (break steps). */
    obs::Counter &compactionMoves;
    /** Headers that entered the Blocked state. */
    obs::Counter &blockedHeaders;
    /** Partial buses torn down under BlockingPolicy::NackRetry. */
    obs::Counter &blockedAborts;
    /** Partial buses torn down by the Wait-mode header timeout. */
    obs::Counter &timeoutAborts;
    /** Total odd/even cycle flips across all INCs. */
    obs::Counter &cycleFlips;
    /** Data-flit acknowledgements delivered (detailed mode). */
    obs::Counter &dacks;
    /** Largest |cycleCount(i) - cycleCount(i+1)| ever observed. */
    obs::Counter &maxCycleSkew;

    /** Multicast/broadcast groups completed. */
    obs::Counter &multicasts;

    /** Segment faults injected (failSegment calls). */
    obs::Counter &faultsInjected;
    /** Segment faults repaired (repairSegment calls). */
    obs::Counter &faultsRepaired;
    /** Live virtual buses severed by a fault or the watchdog. */
    obs::Counter &busesSevered;
    /** Messages delivered despite >= 1 sever along the way. */
    obs::Counter &messagesRecovered;
    /** Messages that were severed and then permanently failed. */
    obs::Counter &messagesLost;
    /** Delivery-supervisor rescues (sever-and-retry or write-off). */
    obs::Counter &watchdogFires;

    /** Permanent (never-repaired) segment faults injected. */
    obs::Counter &faultsPermanent;
    /** Whole-node fault events (all healthy levels of one gap). */
    obs::Counter &nodeFaults;
    /** Whole-bridge fault events (shapes with bridges only). */
    obs::Counter &bridgeFaults;

    /**
     * The dead-letter account (docs/FAULTS.md): messages written off
     * with a reason code.  `deadLettered` is the total; the per-reason
     * counters partition it, so
     * delivered + deadLettered + in-flight == injected at any instant.
     */
    obs::Counter &deadLettered;
    obs::Counter &deadRetriesExhausted;
    obs::Counter &deadUnreachable;
    obs::Counter &deadStalled;
    obs::Counter &deadBridgeDead;

    /** Injection -> the source's top segment is free again. */
    sim::SampleStat &topReleaseLatency;

    /** First sever -> eventual delivery, per recovered message. */
    sim::SampleStat &recoveryLatency;

    /** Creation -> per-member delivery over all multicast members. */
    sim::SampleStat &multicastMemberLatency;
    /** Time headers spent in the Blocked state. */
    sim::SampleStat &blockedTime;
    /** Live virtual buses (injection .. teardown complete). */
    sim::LevelTracker &liveBuses;

    /** Count one write-off under @p reason (total + per-reason). */
    void noteDeadLetter(obs::DeadLetterReason reason);
};

class DeliverySupervisor;
class FaultSchedule;

/**
 * Abstract RMB simulation backend.
 *
 * The contract on top of net::Network:
 *  - construction takes a validated RmbConfig; engines refuse (via
 *    fatal) to build from a config whose validate() reports problems;
 *  - fault injection (failSegment/repairSegment) follows the
 *    transient-fault semantics of docs/FAULTS.md on both backends;
 *  - the segment census accessors expose the N x k grid generically,
 *    so heatmaps and reports need no backend-specific casts;
 *  - auditInvariants() panics on any structural violation and may be
 *    called at any quiescent or non-quiescent instant.
 *
 * Scheduling internals - watchdog arming, INC clocks or timing
 * wheels - are deliberately *absent*: they are implementation details
 * behind this interface.  The two flat backends share their
 * protocol steps through core::RingEngine (ring_engine.hh).
 */
class Engine : public net::Network
{
  public:
    /** Fatals unless @p config validates (validatedEngineConfig). */
    Engine(sim::Simulator &simulator, std::string name,
           const RmbConfig &config);

    ~Engine() override;

    /** The validated configuration this engine was built from. */
    const RmbConfig &config() const { return config_; }

    /** RMB-specific counters (same registry names on all backends). */
    const RmbStats &
    rmbStats() const
    {
        foldStats();
        return rmbStats_;
    }

    /**
     * Fault injection: disable the physical segment at
     * (@p gap, @p level).  With RmbConfig::transientFaults the
     * segment may be *occupied*: the owning virtual bus is severed
     * and torn down hop by hop, and its message retried from the
     * source (docs/FAULTS.md).  Without it, faulting an occupied
     * segment is a hard error (the historical static-fault model).
     */
    virtual void failSegment(GapId gap, Level level) = 0;

    /**
     * Repair a faulted segment: the inverse of failSegment.  The
     * segment becomes claimable again once any severed occupant has
     * finished releasing it.
     */
    virtual void repairSegment(GapId gap, Level level) = 0;

    /** Run every structural invariant check now (any VerifyLevel). */
    virtual void auditInvariants() const = 0;

    // --- segment census (generic N x k grid view) ---

    /** Is the segment at (@p gap, @p level) claimed by a bus? */
    virtual bool segmentOccupied(GapId gap, Level level) const = 0;

    /** Is the segment at (@p gap, @p level) faulted? */
    virtual bool segmentFaulty(GapId gap, Level level) const = 0;

    /** Number of currently faulted segments. */
    virtual std::uint32_t faultySegments() const = 0;

    /** Number of currently occupied segments. */
    virtual std::uint64_t occupiedSegments() const = 0;

    /** Busy fraction of one segment over [0, @p now]. */
    virtual double segmentUtilization(GapId gap, Level level,
                                      sim::Tick now) const = 0;

    /** Mean busy fraction over all N x k segments. */
    virtual double averageSegmentUtilization(sim::Tick now) const = 0;

    // --- fault domain (what failSegment's coordinates range over) ---

    /**
     * Number of gap coordinates failSegment accepts.  The flat ring's
     * domain is its N gaps; composed topologies (core::RingGraph)
     * extend the coordinate space so the fault schedule can hit every
     * constituent ring's segments, the hierarchy's global ring
     * included (docs/HIERARCHY.md documents the numbering).
     */
    virtual GapId faultDomainGaps() const { return config().numNodes; }

    /** Number of levels at fault-domain gap @p gap. */
    virtual Level faultDomainLevels(GapId gap) const
    {
        (void)gap;
        return static_cast<Level>(config().numBuses);
    }

    // --- permanent damage and graceful degradation ---
    //
    // A *permanent* fault is a failSegment that will never see a
    // matching repairSegment.  The engine keeps a per-gap bitmask of
    // permanently dead levels over the fault domain; sources consult
    // routeDead() to write traffic off instead of retrying forever,
    // and the census below feeds the effective-k / residual-bandwidth
    // degradation metrics (docs/FAULTS.md).

    /** Record that (@p gap, @p level) is dead for good.  Purely
     *  bookkeeping: callers still failSegment() the coordinate. */
    void markSegmentPermanent(GapId gap, Level level);

    /** Forget a permanence mark (scripted repair of "permanent"
     *  damage, e.g. a replayed fault plan).  Bookkeeping only. */
    void clearSegmentPermanent(GapId gap, Level level);

    /** Is (@p gap, @p level) marked permanently dead? */
    bool segmentPermanent(GapId gap, Level level) const;

    /** Total segments currently marked permanently dead. */
    std::uint32_t permanentSegments() const { return permanentCount_; }

    /** Bitmask of permanently dead levels at fault-domain gap @p gap
     *  (bit L set = level L dead for good). */
    std::uint64_t deadLevelMask(GapId gap) const;

    /** Number of permanently dead levels at fault-domain gap @p gap. */
    Level deadLevelsAt(GapId gap) const;

    /** Every level of @p gap is permanently dead: the ring is cut
     *  there and nothing can ever cross it again. */
    bool gapFullyDead(GapId gap) const;

    /** Degradation census: mean live (non-permanently-dead) bus
     *  levels per fault-domain gap - the effective k after damage. */
    double effectiveBuses() const;

    /** Live / total segments over the fault domain, in [0, 1]:
     *  the residual bandwidth fraction after permanent damage. */
    double residualBandwidth() const;

    /**
     * True when no route from @p src to @p dst can ever succeed given
     * the permanent damage recorded so far: the source's top level is
     * dead (it can never inject) or the one-way path crosses a fully
     * dead gap.  Sources call this to dead-letter doomed traffic with
     * reason kDeadUnreachable instead of retrying forever.  Composed
     * topologies override it to reason about their legs.
     */
    virtual bool routeDead(net::NodeId src, net::NodeId dst) const;

    // --- bridge fault domain (composed topologies only) ---

    /** Number of bridges failBridge() accepts; 0 = no bridges. */
    virtual std::uint32_t faultDomainBridges() const { return 0; }

    /**
     * Take bridge @p bridge out of service.  Buffered occupants drain
     * through their in-flight legs; new arrivals deflect (transient)
     * or dead-letter with kDeadBridgeDead (@p permanent).  Engines
     * without bridges refuse via panic.
     */
    virtual void failBridge(std::uint32_t bridge, bool permanent);

    /** Return a failed bridge to service (no-op if healthy). */
    virtual void repairBridge(std::uint32_t bridge);

    /** Is bridge @p bridge currently out of service? */
    virtual bool bridgeFaulty(std::uint32_t bridge) const
    {
        (void)bridge;
        return false;
    }

    // --- delivery supervisor hooks (docs/ENGINE.md) ---
    //
    // The engine-generic DeliverySupervisor periodically fingerprints
    // every open message with progressStamp() and, when a stamp sits
    // unchanged for config().watchdogTimeout ticks, asks the engine to
    // rescueStalled() it.  The hooks are generic so the supervisor
    // works identically on the event and kernel backends and on
    // every composed shape.

    /**
     * Progress fingerprint of open message @p id.  Any value, with
     * one contract: it must change whenever the message makes
     * observable protocol progress (hop, ack, retry, requeue, leg
     * handoff).  The base version hashes the generic message fields;
     * engines fold in their bus/leg state.
     */
    virtual std::uint64_t progressStamp(net::MessageId id) const;

    /**
     * Message @p id made no progress for a full supervisor timeout:
     * rescue it (sever its silent bus and let the retry machinery
     * take over, or dead-letter it when no route remains) or declare
     * it exempt.  @return true when the engine acted.
     */
    virtual bool rescueStalled(net::MessageId id) = 0;

  protected:
    /**
     * Start the MTBF/MTTR fault process when config().faultMtbf > 0.
     * It draws from its own split substream, so enabling it never
     * perturbs protocol randomness for a given seed.
     */
    void startFaultSchedule();

    /**
     * Arm the delivery supervisor (lazily constructed on first call;
     * no-op when config().watchdogTimeout == 0).  Engines call this
     * whenever a message enters the system.
     */
    void superviseActivity();

    /**
     * Write @p m off: fail it, count it in the dead-letter account
     * under @p reason, and emit the DeadLetter trace event.  Engines
     * settle their own bookkeeping (ports, queues, sever accounting)
     * before calling.
     */
    void deadLetterMessage(net::Message &m,
                           obs::DeadLetterReason reason);

    RmbConfig config_;
    RmbStats rmbStats_;

  private:
    void ensurePermanentMask() const;

    /** Per fault-domain gap, bitmask of permanently dead levels. */
    mutable std::vector<std::uint64_t> permanentMask_;
    std::uint32_t permanentCount_ = 0;
    std::unique_ptr<DeliverySupervisor> supervisor_;
    std::unique_ptr<FaultSchedule> faults_;
};

/**
 * Construct the backend selected by @p config.engine.  Fatals (like
 * the engines themselves) if the configuration is invalid - including
 * kernel-incompatible option combinations, which validate() reports
 * with the exact option to change.
 */
std::unique_ptr<Engine> makeEngine(sim::Simulator &simulator,
                                   const RmbConfig &config);

/**
 * Fatal with every validate() problem unless @p config is valid;
 * returns @p config so engine constructors can chain it before any
 * member construction.
 */
const RmbConfig &validatedEngineConfig(const RmbConfig &config);

/**
 * Canonical digest of a network's per-message *outcomes*: one line
 * per message id with source, destination, payload, final state and
 * the delivering circuit's hop count.  Two engines that implement the
 * same protocol semantics must produce byte-identical digests for the
 * same workload (see tests/engine_diff_test.cc and docs/ENGINE.md for
 * why outcomes, not tick-level traces, are the equivalence contract).
 */
std::string outcomeDigest(const net::Network &network);

} // namespace core
} // namespace rmb
