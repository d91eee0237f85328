/**
 * @file
 * RingEngine: the RMB protocol's circuit steps, the bus pool and the
 * compaction move, written once for both flat backends.
 *
 * The paper's protocol does not depend on how time advances.  A
 * header is injected only on the top bus (section 2.3); at each INC it
 * takes a free output within one level of its input; at the
 * destination it either gets a Hack back or a Nack that tears the
 * path down, and the source retries after a jittered backoff; a Fack
 * frees the hops back to the source (Figure 6).  RingEngine defines
 * those steps over the VirtualBus records it keeps: the PE send queue
 * and its injection gate, the header walk (headerArrive, tryAdvance),
 * the Hack and the final flit, the teardown walk and the end of a bus
 * (requeue or write-off), the fault path (sever, make-before-break
 * cancel) and the recovery and dead-letter account.  Every step a
 * backend schedules is one StepKind that runStep() runs on the bus a
 * BusHandle names; a sever starts a new generation of the bus, so a
 * step scheduled before it finds another generation and does nothing.
 *
 * RingEngine owns the N x k segment grid both backends claim and free
 * (SegmentPlanes), so the segment census and its audit are written
 * here once, and the one bus pool: recycled slots with a live flag and
 * a generation, whose slot is the owner key of every cell a bus
 * claims.  The make and break bodies of a compaction move (section
 * 2.5) are written here too; a backend decides only when they run.  A
 * backend supplies its execution model through the private hooks
 * below: how a step or an injection is scheduled and, for Wait mode,
 * how a header waits.  RmbNetwork keeps INC FSMs, Wait mode, detailed
 * flits and multicast; CycleKernelEngine keeps its timing wheel, pins
 * and synchronous compaction cycle.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
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

    /** Base stamp + the carrying bus's id, state, epoch and extent. */
    std::uint64_t progressStamp(net::MessageId id) const override;

    /**
     * Live virtual bus by id; nullptr if the bus existed but has
     * been retired.  Panics with the offending id if no bus with
     * that id was ever allocated (a caller bug, not a race).
     */
    const VirtualBus *bus(VirtualBusId id) const;

    /** Ids of all live virtual buses (ascending). */
    std::vector<VirtualBusId> liveBusIds() const;

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

    /**
     * Testing-only seeded divergence (tests/engine_diff_test.cc's
     * WILL_FAIL probe): ShortCircuit delivers every message one node
     * early, which the outcome digest must catch via pathHops.
     * Never set outside tests.
     */
    enum class TestMutation : std::uint8_t
    {
        None,
        ShortCircuit,
    };
    void setTestMutation(TestMutation m) { mutation_ = m; }

  protected:
    /** The protocol steps a backend schedules for a bus. */
    enum class StepKind : std::uint8_t
    {
        Header,    //!< the header reaches its next INC
        Hack,      //!< the Hack reaches the source
        FinalFlit, //!< the final flit lands at the destination
        Teardown,  //!< the Fack/Nack crosses the head-most hop
    };

    /** @p inject_scope and @p advance_scope name the profiler layers
     *  injections and header advances are timed under; nullptr
     *  leaves them untimed. */
    RingEngine(sim::Simulator &simulator, std::string name,
               const RmbConfig &config, const char *inject_scope,
               const char *advance_scope);

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
     * Run the @p kind step of the bus @p h names, unless that bus
     * retired or a sever started a new generation of it since the
     * step was scheduled.
     */
    void runStep(StepKind kind, BusHandle h);

    /** Claim the head's next segment, or Nack (NackRetry) or block
     *  (Wait).  May not inject, so @p bus stays valid for the
     *  caller. */
    void tryAdvance(VirtualBus &bus);

    void startTeardown(VirtualBus &bus, BusState kind);

    /**
     * Free one segment of @p bus and dispatch the wakeups.  A wakeup
     * may inject a new bus, which can grow the pool and move every
     * record: @p bus must not be used after this returns.
     */
    void releaseSegment(VirtualBus &bus, GapId gap, Level level,
                        obs::SegmentFreeReason reason);

    /** Emit a SegmentFree trace event (no-op when not tracing). */
    void
    noteSegmentFree(const VirtualBus &bus, GapId gap, Level level,
                    obs::SegmentFreeReason reason)
    {
        if (tracing())
            traceSegmentFree(bus, gap, level, reason);
    }

    /** Assemble a trace event carrying @p bus's identity. */
    obs::TraceEvent busEvent(obs::EventKind kind, const VirtualBus &bus,
                             net::NodeId node, GapId gap = 0,
                             Level level = kNoLevel) const;

    /** Index of @p bus's hop crossing @p gap: (gap - source gap) mod N
     *  with one conditional add, as it runs per make candidate. */
    std::size_t
    hopIndexAt(const VirtualBus &bus, GapId gap) const
    {
        const GapId src = bus.srcGap();
        return static_cast<std::size_t>(
            gap >= src ? gap - src : gap + config_.numNodes - src);
    }

    /**
     * The make step of one move candidate, the cell (@p gap,
     * @p level) (paper section 2.5, Figure 4): when its owner's hop
     * there sits at @p level and Figure 7 lets it move, claim the
     * segment one level down, so both carry the signal until the
     * break, and append the record the break takes to @p out.
     */
    void
    makeMove(GapId gap, Level level, std::vector<MoveRecord> &out)
    {
        const BusKey key = segments_.owner(gap, level);
        if (key == kNoKey)
            return;
        VirtualBus &bus = busAt(key);
        const std::size_t idx = hopIndexAt(bus, gap);
        rmb_assert(idx < bus.hops.size(), "bus ", bus.id,
                   " holds a cell beyond its hops at (", gap, ",",
                   level, ")");
        Hop &hop = bus.hops[idx];
        rmb_assert(hop.gap == gap, "hop/gap bookkeeping mismatch");
        if (hop.level != level)
            return; // level is the dual target of a move in progress
        const auto is_free = [this](GapId g, Level l) {
            return segments_.isFree(g, l);
        };
        if (!hopMovableRule(bus, idx, is_free))
            return;
        segments_.occupy(gap, level - 1, key, simulator().now());
        hop.dualLevel = level - 1;
        ++hop.moveSeq;
        if (tracing()) {
            obs::TraceEvent e = busEvent(obs::EventKind::CompactionMake,
                                         bus, gap, gap, level);
            e.a = static_cast<std::uint64_t>(level - 1);
            e.b = hop.moveSeq;
            emitTrace(e);
        }
        out.push_back(MoveRecord{static_cast<std::uint32_t>(key),
                                 static_cast<std::uint32_t>(idx),
                                 bus.id, level});
    }

    /**
     * The break step of @p r: settle the hop one level down and
     * release the upper segment, unless the record went stale (the
     * bus retired, the hop was freed or the move cancelled) or the
     * target faulted since the make.  @return whether the move
     * committed; the release may grow the pool, so no record
     * reference survives the call.
     */
    bool breakMove(const MoveRecord &r);

    /** Audit every live bus's hops against the grid, and the grid
     *  itself: the occupancy plane and the per-level counts against
     *  the owners, faulted segments held only by tearing-down buses,
     *  and the pool's free list. */
    void auditSegments() const;

    /** The live bus in slot @p key (panics if none). */
    VirtualBus &
    busAt(BusKey key)
    {
        rmb_assert(key < pool_.size() && pool_[key].live,
                   "no live bus in slot ", key);
        return pool_[key];
    }
    const VirtualBus &
    busAt(BusKey key) const
    {
        return const_cast<RingEngine *>(this)->busAt(key);
    }

    /** The handle naming @p bus's current life. */
    static BusHandle
    handleOf(const VirtualBus &bus)
    {
        return BusHandle{bus.gen} << 32 | bus.key;
    }

    /** The live bus @p h names, or nullptr once that life ended. */
    VirtualBus *
    liveBus(BusHandle h)
    {
        VirtualBus &bus = pool_[static_cast<std::uint32_t>(h)];
        return bus.live && bus.gen == h >> 32 ? &bus : nullptr;
    }

    /** The N x k grid (claims, faults, the kernel's pins). */
    SegmentPlanes segments_;
    /** RNG stream (backoff jitter; INC phases or the kernel period). */
    sim::Random rng_;
    std::vector<Pe> pes_;
    /**
     * The bus pool, indexed by BusKey.  Opening a bus may grow it and
     * move every record, so a record is named by its key or handle,
     * never held by reference, across anything that can inject:
     * tryInject and releaseSegment (through its wakeups).
     */
    std::vector<VirtualBus> pool_;

  private:
    // --- hooks: scheduling ---
    virtual void scheduleInject(net::NodeId node, sim::Tick delay) = 0;
    /**
     * Call runStep(@p kind) for @p bus @p delay from now.  A bus's
     * first Header step follows its injection, and a Teardown step of
     * a bus with no hop freed yet starts its teardown.
     */
    virtual void scheduleStep(StepKind kind, sim::Tick delay,
                              VirtualBus &bus) = 0;
    /** Can @p bus lose a step, so the watchdog may sever it? */
    virtual bool canStall(const VirtualBus &bus) const = 0;

    // --- hooks with defaults ---
    /** Hold an Advancing or Blocked header that found no free output
     *  (Wait mode only). */
    virtual void
    block(VirtualBus &bus)
    {
        panic("bus ", bus.id, " blocked on a backend without Wait mode");
    }
    /** Take a Blocked header off its wait list (Wait mode only). */
    virtual void unblock(VirtualBus &bus) { (void)bus; }
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

    /**
     * Output level a header entering gap @p gap over hop @p in takes,
     * or kNoLevel when none is free.  With faults on the grid, fault
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

    /** The node a header stops at: the destination, or one before it
     *  under TestMutation::ShortCircuit. */
    net::NodeId effectiveDst(const VirtualBus &bus) const;
    /** Gaps from the source to effectiveDst(). */
    std::uint32_t pathLength(const VirtualBus &bus) const;

    // --- the steps runStep() runs ---
    /** At the destination: hold a free receive port and send the
     *  Hack, or Nack when none is free; elsewhere, tryAdvance. */
    void headerArrive(VirtualBus &bus);
    /** The Hack reached the source: the circuit is up; schedule the
     *  final flit's closed-form landing. */
    void establish(VirtualBus &bus);
    /** The final flit landed: deliver, close any recovery, and start
     *  the Fack teardown. */
    void deliver(VirtualBus &bus);
    /** One hop of the walking Fack/Nack; the source hop ends the bus
     *  (requeue or write-off on a Nack or fault). */
    void teardownStep(VirtualBus &bus);

    /** Cut @p bus (fault or watchdog); its message retries. */
    void severBus(VirtualBus &bus, std::uint64_t reason);
    /** Audit one live bus's hops against the segment grid; returns
     *  the segments it claims. */
    std::uint64_t auditHops(const VirtualBus &bus) const;

    /** A blank live record in a free slot (the pool grows when none
     *  is free); the caller fills it. */
    VirtualBus &openBus();
    /** Return @p bus's slot to the pool and end its generation. */
    void retireBus(VirtualBus &bus);
    /** The live bus carrying @p id, or nullptr. */
    VirtualBus *carrierOf(net::MessageId id);

    /** Release the cell; returns whether it is claimable again.  A
     *  faulted cell is released by its severed owner but not freed:
     *  nobody may claim it until repair. */
    bool freeSegment(GapId gap, Level level, BusKey key);
    void traceSegmentFree(const VirtualBus &bus, GapId gap, Level level,
                          obs::SegmentFreeReason reason);
    void busFinished(VirtualBus &bus, const Hop &last_hop);
    void scheduleRetry(net::NodeId node, net::MessageId msg);
    void segmentFreed(GapId gap, Level level);
    void severOccupant(GapId gap, Level level, VirtualBus &bus);
    /** Dead-letter @p m (severedAt_ lost accounting included). */
    void writeOff(net::Message &m, obs::DeadLetterReason reason);

    /** Free pool slots, reused last-in first-out. */
    std::vector<std::uint32_t> freeSlots_;
    VirtualBusId nextBusId_ = 1;
    /**
     * First-sever tick of every message whose virtual bus was cut by
     * a fault or the watchdog and that has not yet been delivered
     * (-> messagesRecovered + recoveryLatency) or permanently failed
     * (-> messagesLost).
     */
    std::unordered_map<net::MessageId, sim::Tick> severedAt_;
    const char *injectScope_;
    const char *advanceScope_;
    TestMutation mutation_ = TestMutation::None;
};

} // namespace core
} // namespace rmb
