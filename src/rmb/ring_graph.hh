/**
 * @file
 * The ring composer: every multi-ring RMB shape as rings, bridges and
 * a route (docs/HIERARCHY.md).
 *
 * A RingGraph is a `core::Engine` whose fabric is a set of complete
 * RMB rings, each a full engine of RmbConfig::engine, described by
 * three things:
 *
 *  - the rings, each with a size, a level count and a seed;
 *  - the bridges: store-and-forward INCs with RmbConfig::bridgeBuffer
 *    slots, crossed in RmbConfig::bridgeLatency ticks.  A message
 *    arriving at a full bridge is *deflected*: it re-enters the
 *    Nack/backoff machinery and re-offers itself later;
 *  - the route: (src, dst) -> a sequence of legs (ring, from, to).
 *    A leg is entered through a bridge or by a direct hand-off, which
 *    launches it inline in the previous leg's delivery callback.
 *
 * The shape decides how rings execute.  With bridges, every ring runs
 * on its own private `sim::Simulator`, advanced in conservative
 * lookahead windows of at most bridgeLatency ticks by a coordinator
 * event on the parent simulator; the shards with events due in a
 * window run in parallel on a `common::Runner` pool
 * (RmbConfig::shardJobs), each thread on its own fixed block of
 * shards, and all cross-ring traffic is exchanged at the
 * single-threaded window barrier in global time order, so results
 * are byte-identical for every job count.  Without bridges, every
 * ring runs on the parent simulator.
 *
 * The shapes are the builders at the bottom of this file: the
 * hierarchy (topology=hier, built by core::makeEngine), the dual
 * counter-rotating ring and n-dimensional grids (the torus is the
 * 2-D grid).
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/parallel.hh"
#include "rmb/engine.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace rmb {
namespace core {

/** One leg of a route: an ordinary RMB circuit on one ring. */
struct RingLeg
{
    static constexpr std::uint32_t kNone = ~0u;

    /** Ring carrying the leg; kNone marks the end of the route. */
    std::uint32_t ring = kNone;
    net::NodeId from = 0; //!< ring-local source
    net::NodeId to = 0;   //!< ring-local destination
    /** Bridge crossed to enter this leg; kNone = direct hand-off
     *  (or, on the first leg, the message starts on the ring). */
    std::uint32_t bridge = kNone;
};

/**
 * Leg @p step of the route from @p src to @p dst, or a leg with
 * ring == RingLeg::kNone past the last one.  A pure function, so the
 * per-message state carries only the step index.
 */
using RingRoute = std::function<RingLeg(net::NodeId src, net::NodeId dst,
                                        std::uint32_t step)>;

/** One constituent ring of a shape. */
struct RingSpec
{
    std::uint32_t nodes = 0;
    std::uint32_t levels = 0;
    std::uint64_t seed = 0;
};

/** What a shape builder hands the composer. */
struct RingShape
{
    std::string name; //!< the network name reports print
    /** Constructed in this order; ring r's fault-domain gaps follow
     *  ring r-1's. */
    std::vector<RingSpec> rings;
    /** The PE each bridge attaches to (its trace node id). */
    std::vector<net::NodeId> bridges;
    RingRoute route;
};

/**
 * The composed engine.  See the file comment for the model and
 * docs/HIERARCHY.md for the bridge protocol and the
 * lookahead-determinism argument.
 */
class RingGraph : public Engine
{
  public:
    /** @p config describes the whole network (numNodes = all PEs);
     *  each ring runs a copy with its own size, levels and seed. */
    RingGraph(sim::Simulator &simulator, const RmbConfig &config,
              RingShape shape);
    ~RingGraph() override;

    net::MessageId send(net::NodeId src, net::NodeId dst,
                        std::uint32_t payload_flits) override;

    // --- core::Engine ---
    void failSegment(GapId gap, Level level) override;
    void repairSegment(GapId gap, Level level) override;
    void auditInvariants() const override;
    bool segmentOccupied(GapId gap, Level level) const override;
    bool segmentFaulty(GapId gap, Level level) const override;
    std::uint32_t faultySegments() const override;
    std::uint64_t occupiedSegments() const override;
    double segmentUtilization(GapId gap, Level level,
                              sim::Tick now) const override;
    double averageSegmentUtilization(sim::Tick now) const override;

    /**
     * Fault domain: the rings' gaps in ring order (ring r's gaps
     * follow ring r-1's), each with its ring's level count.
     */
    GapId faultDomainGaps() const override;
    Level faultDomainLevels(GapId gap) const override;

    // --- bridge fault domain (docs/FAULTS.md) ---
    std::uint32_t faultDomainBridges() const override;

    /**
     * Take bridge @p bridge out of service.  Buffered occupants
     * drain through their already-launched legs; new offers deflect
     * (transient) or dead-letter with kDeadBridgeDead (@p permanent).
     */
    void failBridge(std::uint32_t bridge, bool permanent) override;
    void repairBridge(std::uint32_t bridge) override;
    bool bridgeFaulty(std::uint32_t bridge) const override;

    /**
     * Leg-by-leg route liveness: dead when any leg's injection top is
     * permanently gone, any leg crosses a fully dead gap, or a bridge
     * it must enter is permanently out of service.
     */
    bool routeDead(net::NodeId src, net::NodeId dst) const override;

    // --- delivery supervisor hooks (docs/ENGINE.md) ---

    /** Base stamp + the in-flight leg's step and the ring engine's
     *  own progress stamp for that leg. */
    std::uint64_t progressStamp(net::MessageId id) const override;

    /**
     * Rescue a parent message whose current leg sits silent: if no
     * route remains, release any held bridge slot, orphan the stuck
     * leg inside its ring and dead-letter the message; otherwise
     * delegate to the ring engine's own rescue machinery.
     */
    bool rescueStalled(net::MessageId id) override;

    std::uint32_t
    numRings() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }

    /** The engine of ring @p ring (tests / census / timelines). */
    const Engine &ringEngine(std::uint32_t ring) const;

    /** Bridge deflections so far (hier.bridge.deflections). */
    std::uint64_t bridgeDeflections() const;

    /** Leg @p step of the route from @p src to @p dst. */
    RingLeg
    routeLeg(net::NodeId src, net::NodeId dst,
             std::uint32_t step) const
    {
        return route_(src, dst, step);
    }

  private:
    /** Parent-side in-flight state, carried between legs by value. */
    struct Pending
    {
        net::MessageId ours = net::kNoMessage;
        net::NodeId src = 0;
        net::NodeId dst = 0;
        std::uint32_t hops = 0;     //!< accumulated path hops
        std::uint32_t deflects = 0; //!< consecutive bridge deflects
        std::uint32_t step = 0;     //!< route leg carried or offered
    };

    /** The ring counters summed into the network's, one slot each
     *  (foldedCounters in ring_graph.cc lists them). */
    using Tally = std::array<std::uint64_t, 10>;

    /** One delivery/failure observed inside a shard window; appended
     *  by the shard's worker thread, drained at the barrier. */
    struct OutRecord
    {
        sim::Tick at = 0;
        net::MessageId leg = net::kNoMessage;
        bool failed = false;
    };

    /** One ring: its simulator, engine and leg bookkeeping. */
    struct Shard
    {
        /** A private simulator when the shape has bridges. */
        std::unique_ptr<sim::Simulator> ownSim;
        sim::Simulator *sim = nullptr;
        std::unique_ptr<Engine> engine;
        GapId gapBase = 0;
        std::uint32_t segBase = 0; //!< first fault-mirror index
        /** leg message id -> parent pending state.  Written only by
         *  this shard's worker (inside wrapper events) or by the
         *  single-threaded barrier; never both at once. */
        std::unordered_map<net::MessageId, Pending> legs;
        /** Legs whose parent message the supervisor dead-lettered:
         *  their eventual completion records are dropped instead of
         *  panicking as unmapped (docs/FAULTS.md). */
        std::unordered_set<net::MessageId> orphans;
        std::vector<OutRecord> outbox;
        /** The ring's counters as last folded into the network's. */
        mutable Tally folded{};
    };

    /** What one runner block gathered while stepping its shards in a
     *  window, so the barrier never walks them: their counter deltas
     *  and the shards whose outbox holds records. */
    struct alignas(64) BlockTally
    {
        Tally moved{};
        std::vector<std::uint32_t> mail;
    };

    /** A deferred bridge admission offer (deflection retry or a
     *  send that starts on its bridge node). */
    struct Offer
    {
        sim::Tick at = 0;
        std::uint64_t seq = 0; //!< creation order, the tiebreaker
        std::uint32_t bridge = 0;
        Pending pending;
    };
    struct OfferLater
    {
        bool
        operator()(const Offer &a, const Offer &b) const
        {
            return a.at != b.at ? a.at > b.at : a.seq > b.seq;
        }
    };

    /** Bounded store-and-forward buffer state of one bridge INC. */
    struct Bridge
    {
        net::NodeId node = 0; //!< attached PE (trace attribution)
        std::uint32_t occupancy = 0;
        sim::Random rng; //!< deflection backoff jitter
        bool dead = false;      //!< out of service (failBridge)
        bool permanent = false; //!< never coming back
    };

    /** The hier.bridge.* metrics, registered only with bridges. */
    struct BridgeStats
    {
        explicit BridgeStats(obs::MetricsRegistry &registry);
        obs::Counter &arrivals;
        obs::Counter &departures;
        obs::Counter &deflections;
        sim::LevelTracker &occupancy;
    };

    bool sharded() const { return !bridges_.empty(); }

    /** Leg @p rec of ring @p ring completed: queue it for the
     *  barrier (sharded) or process it now (direct hand-off). */
    void legDone(std::uint32_t ring, const OutRecord &rec);

    // Coordinator (the conservative parallel executor).
    void ensureArmed();
    void coordinate();
    sim::Tick windowCandidate();
    void runWindow(sim::Tick until);
    void drainBarrier(sim::Tick until);
    /** The rings' protocol counters are the network's, and so are
     *  their circuit and live-bus levels. */
    void foldStats() const override;
    /** The counter half of foldStats, which every window runs. */
    void foldCounters() const;
    /** Sharded, the levels half: each ring keeps its levels on its
     *  own clock, so the network's are their sums, folded when read
     *  (exact but for the peak, docs/OBSERVABILITY.md).  Rings on the
     *  parent clock feed their changes in as they happen instead. */
    void foldLevels() const;
    /** Add what @p sh's counters moved since its last fold to
     *  @p into (the running maximum for maxCycleSkew). */
    static void takeDelta(const Shard &sh, Tally &into);
    /** Add @p moved, gathered by takeDelta, to the network's. */
    void addTally(const Tally &moved) const;
    /** Bring shard @p sh's simulator clock up to shardClock_ before
     *  the parent schedules into it or calls into its engine. */
    void syncClock(Shard &sh);
    /** The parent called into shard @p s's engine between windows:
     *  refresh its next event tick and queue it for the barrier. */
    void touch(std::uint32_t s);

    // Leg plumbing.  With bridges it runs at the barrier
    // (single-threaded, in global time order); without, inline in
    // the ring callbacks.
    void processRecord(std::uint32_t shard, const OutRecord &rec);
    /** Start @p leg, the route's leg pending.step: launch it, or
     *  offer the message to the bridge that enters it. */
    void enterLeg(const RingLeg &leg, const Pending &pending,
                  sim::Tick at);
    void offerToBridge(std::uint32_t bridge, Pending pending,
                       sim::Tick at);
    void releaseBridge(std::uint32_t bridge, const Pending &pending,
                       sim::Tick at);
    void launchLeg(const RingLeg &leg, sim::Tick at,
                   const Pending &pending);
    void finish(Pending &pending, sim::Tick at,
                sim::Tick established);
    void emitBridgeEvent(obs::EventKind kind, std::uint32_t bridge,
                         const Pending &pending, sim::Tick at,
                         std::uint64_t a);
    void emitSegmentEvent(obs::EventKind kind, GapId gap,
                          Level level);

    /** Ring owning fault-domain gap @p gap. */
    std::uint32_t ringOfGap(GapId gap) const;
    std::uint32_t faultIndex(GapId gap, Level level) const;
    /** Forward a segment fault/repair to the owning ring. */
    void forwardSegment(GapId gap, Level level, bool fail);

    /** Locate the in-ring leg currently carrying parent message
     *  @p id; false when the message is between legs (deflecting in
     *  the offer queue or being handed across the barrier). */
    bool findLeg(net::MessageId id, std::uint32_t *shard,
                 net::MessageId *leg) const;

    /** routeDead from leg @p step on; the bridge into that leg is
     *  skipped once the message has @p entered it. */
    bool routeDeadFrom(net::NodeId src, net::NodeId dst,
                       std::uint32_t step, bool entered) const;

    RingRoute route_;
    std::optional<BridgeStats> bridgeStats_;

    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<Bridge> bridges_;

    std::priority_queue<Offer, std::vector<Offer>, OfferLater>
        offers_;
    std::uint64_t offerSeq_ = 0;

    /** Parent-authoritative fault mirror over the whole domain. */
    std::vector<std::uint8_t> faultMirror_;
    std::uint32_t faultyCount_ = 0;
    /** Bridges currently marked permanently dead (routeDead gate). */
    std::uint32_t permanentDeadBridges_ = 0;

    common::Runner runner_;
    bool armed_ = false;

    /** Every shard's clock as the parent sees it: the end of the
     *  last window.  A shard a window skips keeps a stale simulator
     *  clock until its next step or syncClock(), which runs before
     *  anything is scheduled into it or a mutating call reaches its
     *  engine; nothing is pending in a stale shard at or before
     *  shardClock_.  The const queries (census, utilization at an
     *  explicit tick, audits) read no clock. */
    sim::Tick shardClock_ = 0;
    /** Each shard's next pending event tick (kMaxTick when idle),
     *  kept exact by the stepping worker and by every schedule into
     *  the shard, so windowCandidate() never reads a shard's queue. */
    std::vector<sim::Tick> nextTick_;
    /** The shards the current window steps, ascending. */
    std::vector<std::uint32_t> due_;
    /** One per runner block (common::Runner::forEachBlock). */
    std::vector<BlockTally> tallies_;
    /** Shards whose outbox the next barrier drains, ascending. */
    std::vector<std::uint32_t> mail_;
    /** Shards the parent called into between windows (touch()):
     *  their outbox and counters may have moved too. */
    std::vector<std::uint32_t> called_;

    /** RMB_HIER_MUTATE seeded bug (tests): drop the bridge hop from
     *  the accumulated path length, so the outcome digest of any
     *  cross-ring message shrinks by its bridge count.  Proves the
     *  hier differential harness can actually fail (WILL_FAIL). */
    bool mutateHops_ = false;
};

/**
 * Seed of hierarchy ring @p ring (rings 0..M-1 are the local rings,
 * ring M the global ring).  Pure function of the parent seed, exposed
 * so differential tests can build the *identical* standalone flat
 * ring (tests/hier_test.cc).
 */
std::uint64_t localRingSeed(const RmbConfig &config,
                            std::uint32_t ring);

/**
 * topology=hier: M = localRings local rings of numNodes/M nodes,
 * plus (when M > 1) a global ring of M nodes with globalBuses levels
 * and M bridges, bridge r joining local node 0 of ring r to global
 * node r.  Routes go up/global/down.  core::makeEngine calls this.
 */
std::unique_ptr<RingGraph> makeHier(sim::Simulator &simulator,
                                    const RmbConfig &config);

/**
 * Two counter-rotating rings over config.numNodes nodes (paper
 * section 2.1), numBuses levels *per direction*.  Each message takes
 * the plane with the shorter path (ties go clockwise); the
 * counter-clockwise plane, ring 1, is a clockwise ring over reflected
 * node ids (i -> (N - i) mod N).
 */
std::unique_ptr<RingGraph> makeDualRing(sim::Simulator &simulator,
                                        const RmbConfig &config);

/**
 * A grid of rings over dims[0] x dims[1] x ... nodes (paper section
 * 4).  Node ids are mixed-radix with dimension 0 fastest; every grid
 * line is a ring (all dimension-0 lines first), and messages route
 * dimension-ordered with a direct hand-off at each turn.
 * config.numNodes is ignored.  Fatal unless every extent is >= 2.
 */
std::unique_ptr<RingGraph> makeGrid(sim::Simulator &simulator,
                                    std::vector<std::uint32_t> dims,
                                    const RmbConfig &config,
                                    std::string name = "RMB(grid)");

/** The W x H grid: row rings y = 0..H-1 are rings 0..H-1, column
 *  rings x = 0..W-1 follow. */
std::unique_ptr<RingGraph> makeTorus(sim::Simulator &simulator,
                                     std::uint32_t width,
                                     std::uint32_t height,
                                     const RmbConfig &config);

} // namespace core
} // namespace rmb
