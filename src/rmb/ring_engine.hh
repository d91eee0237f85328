/**
 * @file
 * RingEngine: the source side of the RMB protocol, written once for
 * both flat backends.
 *
 * The PE side of the paper's protocol does not depend on how time
 * advances.  A header is injected only on the top bus (section 2.3);
 * a Nack or a fault tears the path down hop by hop and the source
 * retries after a jittered backoff; a Fack frees the hops back to the
 * source.  RingEngine defines those steps over the BusRecord both
 * backends keep: the PE send queue and its injection gate, the
 * teardown walk and the end of a bus (requeue or write-off), the
 * fault path (sever, make-before-break cancel) and the recovery and
 * dead-letter account.
 *
 * RingEngine also owns the N x k segment grid both backends claim
 * and free (SegmentPlanes), so the segment census is written here
 * once.  A backend supplies its execution model through the private
 * hooks below: how a step or an injection is scheduled, how a bus
 * record is opened, found and retired, and how a header is launched.
 * RmbNetwork keeps INC FSMs, Wait mode, detailed flits and multicast;
 * CycleKernelEngine keeps its timing wheel, slot pool, pins and
 * synchronous compaction.
 */

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rmb/compaction_rules.hh"
#include "rmb/engine.hh"
#include "rmb/pe.hh"
#include "rmb/segment_planes.hh"
#include "rmb/virtual_bus.hh"

namespace rmb {
namespace core {

class RingEngine : public Engine
{
  public:
    net::MessageId send(net::NodeId src, net::NodeId dst,
                        std::uint32_t payload_flits) override;

    /** Sever an occupant (transient faults) or refuse to fault it. */
    void failSegment(GapId gap, Level level) override;

    /** Clear the fault; wake as on a release once nobody holds it. */
    void repairSegment(GapId gap, Level level) override;

    /**
     * Sever the silent bus carrying @p id (the backend decides which
     * buses can go silent), or dead-letter a queued message whose
     * route permanent damage has cut.
     */
    bool rescueStalled(net::MessageId id) override;

    /** The N x k segment grid. */
    const SegmentPlanes &segments() const { return segments_; }

    // --- Engine segment census (read from the grid) ---
    bool
    segmentOccupied(GapId gap, Level level) const override
    {
        return segments_.occupied(gap, level);
    }
    bool
    segmentFaulty(GapId gap, Level level) const override
    {
        return segments_.faulted(gap, level);
    }
    std::uint32_t
    faultySegments() const override
    {
        return segments_.faultyCount();
    }
    std::uint64_t
    occupiedSegments() const override
    {
        return segments_.occupiedCount();
    }
    double
    segmentUtilization(GapId gap, Level level,
                       sim::Tick now) const override
    {
        return segments_.utilization(gap, level, now);
    }
    double
    averageSegmentUtilization(sim::Tick now) const override
    {
        return segments_.averageUtilization(now);
    }

  protected:
    /** @p inject_scope names the profiler layer injections are timed
     *  under; nullptr leaves them untimed. */
    RingEngine(sim::Simulator &simulator, std::string name,
               const RmbConfig &config, const char *inject_scope);

    Level topLevel() const
    {
        return static_cast<Level>(config_.numBuses) - 1;
    }

    /** Audit now if VerifyLevel::Full asks for it. */
    void
    auditIfFull() const
    {
        if (config_.verify == VerifyLevel::Full)
            auditInvariants();
    }

    /**
     * Drain @p node's send queue as far as the rules allow: write off
     * dead routes, then inject the head on the top bus once a send
     * port, the backoff and the top segment all allow it.
     */
    void tryInject(net::NodeId node);

    /**
     * Output level a header entering gap @p gap over hop @p in takes,
     * or kNoLevel when none is free.  With @p any_faults, fault
     * lookahead prefers levels from which the next gap still has a
     * live onward level (eager descent otherwise walks into gaps whose
     * low levels are all faulted); a dead end is taken only when
     * nothing else is free.
     */
    Level
    chooseOutputLevel(const Hop &in, GapId gap, net::NodeId dst) const
    {
        const auto k = static_cast<Level>(config_.numBuses);
        const GapId next_gap = (gap + 1) % config_.numNodes;
        const bool lookahead =
            segments_.faultyCount() > 0 && next_gap != dst;
        const auto dead_end = [&](Level lin) {
            for (Level lout : {lin - 1, lin, lin + 1}) {
                if (lout >= 0 && lout < k &&
                    !segments_.faulted(next_gap, lout))
                    return false;
            }
            return true;
        };
        Level reachable[3];
        const int count = reachableOutputLevelsInto(
            in, k, config_.headerPolicy, reachable);
        Level fallback = kNoLevel;
        for (int i = 0; i < count; ++i) {
            const Level l = reachable[i];
            if (!segments_.isFree(gap, l))
                continue;
            if (fallback == kNoLevel)
                fallback = l;
            if (!lookahead || !dead_end(l))
                return l;
        }
        return fallback;
    }

    /** The header reached a free receive port: hold it and await the
     *  Hack.  @return the Hack's travel time back to the source. */
    sim::Tick acceptAtDestination(BusRecord &bus,
                                  std::uint32_t path_length);

    /** The Hack reached the source: the circuit is up.  @return the
     *  closed-form time until the final flit lands. */
    sim::Tick establish(BusRecord &bus);

    /** The final flit landed: deliver, close any recovery, and start
     *  the Fack teardown. */
    void deliver(BusRecord &bus);

    void startTeardown(BusRecord &bus, BusState kind);

    /** One hop of the walking Fack/Nack; the source hop ends the bus
     *  (requeue or write-off on a Nack or fault). */
    void teardownStep(BusRecord &bus);

    /** Cut @p bus (fault or watchdog); its message retries. */
    void severBus(BusRecord &bus, std::uint64_t reason);

    /**
     * Free one segment of @p bus and dispatch the wakeups.  A wakeup
     * may inject a new bus, which can move the backend's records:
     * @p bus must not be used after this returns.
     */
    void releaseSegment(BusRecord &bus, GapId gap, Level level,
                        obs::SegmentFreeReason reason);

    /** Emit a SegmentFree trace event (no-op when not tracing). */
    void
    noteSegmentFree(const BusRecord &bus, GapId gap, Level level,
                    obs::SegmentFreeReason reason)
    {
        if (tracing())
            traceSegmentFree(bus, gap, level, reason);
    }

    /** Assemble a trace event carrying @p bus's identity. */
    obs::TraceEvent busEvent(obs::EventKind kind, const BusRecord &bus,
                             net::NodeId node, GapId gap = 0,
                             Level level = kNoLevel) const;

    /** Audit one live bus's hops against the segment grid; returns
     *  the segments it claims. */
    std::uint64_t auditHops(const BusRecord &bus,
                            std::uint32_t path_length) const;

    /** Audit the grid: @p claimed cells, and faulted segments held
     *  only by tearing-down buses. */
    void auditSegments(std::uint64_t claimed) const;

    /** The live bus record behind @p key (panics if none). */
    BusRecord &
    busAt(BusKey key)
    {
        return const_cast<BusRecord &>(busRecord(key));
    }

    /** The N x k grid (claims, faults, the kernel's pins). */
    SegmentPlanes segments_;
    /** RNG stream (backoff jitter; INC phases or the kernel period). */
    sim::Random rng_;
    std::vector<Pe> pes_;
    VirtualBusId nextBusId_ = 1;

  private:
    // --- hooks: scheduling ---
    virtual void scheduleInject(net::NodeId node, sim::Tick delay) = 0;
    /** Schedule bus @p key's next teardownStep one ack hop from now;
     *  @p started marks a fresh teardown, whose other pending steps
     *  are void. */
    virtual void scheduleTeardownStep(BusKey key, bool started) = 0;
    /** Send the just-injected header toward its first INC. */
    virtual void launchHeader(BusRecord &bus) = 0;

    // --- hooks: bus records ---
    /** A record for new bus @p id with its key set; the caller
     *  fills the rest. */
    virtual BusRecord &openBus(VirtualBusId id) = 0;
    virtual void retireBus(BusKey key) = 0;
    virtual const BusRecord &busRecord(BusKey key) const = 0;
    /** The live bus carrying @p id, or nullptr. */
    virtual BusRecord *carrierOf(net::MessageId id) = 0;
    /** Can @p bus lose a step, so the watchdog may sever it? */
    virtual bool canStall(const BusRecord &bus) const = 0;

    // --- hooks with defaults ---
    /** Take a Blocked header off its wait list (Wait mode only). */
    virtual void unblock(BusRecord &bus) { (void)bus; }
    /** A free segment may let a waiting header advance (Wait mode). */
    virtual void
    wakeBlocked(GapId gap, Level level)
    {
        (void)gap;
        (void)level;
    }
    /** After each shared step (the event engine audits here). */
    virtual void afterStep() {}
    /** After a fault or repair. */
    virtual void afterFaultChange() { auditIfFull(); }

    /** Release the cell; returns whether it is claimable again.  A
     *  faulted cell is released by its severed owner but not freed:
     *  nobody may claim it until repair. */
    bool freeSegment(GapId gap, Level level, BusKey key);
    void traceSegmentFree(const BusRecord &bus, GapId gap, Level level,
                          obs::SegmentFreeReason reason);
    void busFinished(BusRecord &bus, const Hop &last_hop);
    void scheduleRetry(net::NodeId node, net::MessageId msg);
    void segmentFreed(GapId gap, Level level);
    void severOccupant(GapId gap, Level level, BusRecord &bus);
    /** Dead-letter @p m (severedAt_ lost accounting included). */
    void writeOff(net::Message &m, obs::DeadLetterReason reason);

    /**
     * First-sever tick of every message whose virtual bus was cut by
     * a fault or the watchdog and that has not yet been delivered
     * (-> messagesRecovered + recoveryLatency) or permanently failed
     * (-> messagesLost).
     */
    std::unordered_map<net::MessageId, sim::Tick> severedAt_;
    const char *injectScope_;
};

} // namespace core
} // namespace rmb
