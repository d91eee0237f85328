/**
 * @file
 * Configuration of an RMB network instance.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rmb/types.hh"
#include "sim/types.hh"

namespace rmb {
namespace core {

/**
 * All tunables of the RMB simulation.  Defaults model a medium-sized
 * ring (paper section 1) with mildly asynchronous INC clocks.
 */
struct RmbConfig
{
    /** Number of nodes N on the ring. */
    std::uint32_t numNodes = 16;

    /** Number of physical bus segments k between adjacent INCs. */
    std::uint32_t numBuses = 4;

    /** Header flit propagation time across one gap. */
    sim::Tick headerHopDelay = 4;

    /** Ack (Hack/Dack/Fack/Nack) propagation time across one gap. */
    sim::Tick ackHopDelay = 2;

    /** Data flit time per gap (pipelined streaming). */
    sim::Tick flitDelay = 1;

    /**
     * Simulate every data flit individually with Dack-based sliding
     * window flow control (paper section 2.2's data flit
     * acknowledgement, "used for continuation of data flit
     * transmissions and may also be used for flow control").  When
     * false, streaming uses the equivalent closed-form pipeline
     * time; the flit_level tests prove the two agree whenever the
     * window does not throttle.
     */
    bool detailedFlits = false;

    /** Max unacknowledged data flits in flight (detailed mode). */
    std::uint32_t dackWindow = 8;

    /**
     * Local compaction-clock period bounds per INC; each INC draws a
     * fixed period uniformly from [min, max], modelling the paper's
     * independent clocks.  The make-before-break break step happens
     * half a period after the make step.
     */
    sim::Tick cyclePeriodMin = 6;
    sim::Tick cyclePeriodMax = 10;

    /** Output-level preference of an advancing header (see
     *  HeaderPolicy). */
    HeaderPolicy headerPolicy = HeaderPolicy::PreferLowest;

    /**
     * Concurrent sends / receives per PE.  1 each is the paper's
     * base interface; larger values model its section 2.1
     * "enhanced" interface (and exercise the top-bus recycling that
     * compaction provides).  A node still injects one header at a
     * time - its gap has a single top segment - so extra send ports
     * only pay off once compaction frees the top bus early.
     */
    std::uint32_t sendPorts = 1;
    std::uint32_t receivePorts = 1;

    /**
     * Behaviour of a header blocked at an intermediate INC.  The
     * default is NackRetry: Wait (hold the partial bus) can deadlock
     * once the ring is oversubscribed - a measurable finding of this
     * reproduction (see EXPERIMENTS.md) - while NackRetry matches
     * Theorem 1's "a request is provided if a segment is available"
     * reading and is deadlock free.
     */
    BlockingPolicy blocking = BlockingPolicy::NackRetry;

    /**
     * In Wait mode, tear down and retry if a header has been blocked
     * this long (0 disables the timeout).  A safety valve; section 2
     * of the paper argues blocking is rare once compaction runs.
     */
    sim::Tick headerTimeout = 0;

    /**
     * Source retry backoff after a Nack: uniform in [min, max],
     * doubled per consecutive retry of a message up to the cap
     * (sim::retryBackoff); prevents retry livelock when the ring is
     * heavily oversubscribed.
     */
    sim::Tick retryBackoffMin = 8;
    sim::Tick retryBackoffMax = 32;
    sim::Tick retryBackoffCap = 512;

    /** Upper bound on retries per message (0 = unlimited). */
    std::uint32_t maxRetries = 0;

    /**
     * Allow failSegment on an *occupied* segment: the occupying
     * virtual bus is severed, torn down hop by hop, and its message
     * re-queued through the Nack backoff machinery (see
     * docs/FAULTS.md).  When false (the default), faulting an
     * occupied segment is a hard configuration error - the
     * historical static-fault model, where faults are injected
     * before traffic starts.
     */
    bool transientFaults = false;

    /**
     * Mean ticks between fault injections by the built-in
     * FaultSchedule (0 disables the schedule).  Inter-fault gaps are
     * geometric with this mean, drawn from a dedicated
     * sim::Random::split substream so the fault process never
     * perturbs protocol randomness.  Requires transientFaults.
     */
    sim::Tick faultMtbf = 0;

    /**
     * Repair delay of a scheduled fault: uniform in
     * [faultMttrMin, faultMttrMax] ticks after injection.
     */
    sim::Tick faultMttrMin = 500;
    sim::Tick faultMttrMax = 2000;

    /**
     * Probability that a scheduled fault is *permanent*: no repair
     * is ever scheduled, the segment is marked dead for good, and
     * sources learn to write off traffic that must cross a fully
     * dead gap (the dead-letter account; see docs/FAULTS.md).  The
     * extra Bernoulli draw is taken from the fault substream only
     * when the probability is non-zero, so legacy configurations
     * reproduce byte-identical fault sequences.
     */
    double faultPermanentProb = 0.0;

    /**
     * Probability that a scheduled fault takes out a whole *node*:
     * every still-healthy level of one gap fails at once (subject to
     * the half-grid budget), modelling the loss of an entire INC
     * column rather than a single segment.  Combined with
     * faultPermanentProb this is the "damage we must live with"
     * regime of docs/FAULTS.md.
     */
    double faultNodeProb = 0.0;

    /**
     * Probability that a scheduled fault takes out a whole *bridge*
     * (topology=hier only): the bridge stops admitting messages, its
     * current occupants drain normally through their in-flight legs,
     * and arrivals deflect (transient) or dead-letter (permanent).
     */
    double faultBridgeProb = 0.0;

    /**
     * Delivery-supervisor timeout: if an in-flight message makes no
     * observable protocol progress for this many ticks (lost
     * Hack/Dack/Fack after a silent fault, a Wait-mode deadlock, or
     * a leg stranded on a permanently dead resource), the supervisor
     * rescues it - severing the silent bus and retrying, or
     * dead-lettering it when no route remains.  0 disables
     * supervision.  Works on every engine and topology (the
     * epoch-scan supervisor is written against the core::Engine
     * API; docs/ENGINE.md).  Must comfortably exceed the longest
     * legitimate quiet phase (e.g. a full header round trip plus
     * blocking time) or healthy buses get severed; see
     * docs/FAULTS.md for sizing.  Closed-form streaming
     * (detailedFlits=false) is exempt: its completion is a single
     * pre-scheduled event that cannot be lost.
     */
    sim::Tick watchdogTimeout = 0;

    /**
     * Master switch for the compaction protocol; disabling it is the
     * key ablation (the top bus is then the only injection resource
     * and never recycled until teardown).
     */
    bool enableCompaction = true;

    /**
     * Which backend executes this configuration (see EngineKind and
     * docs/ENGINE.md).  The kernel backend refuses configurations it
     * cannot model - validate() reports exactly which option to
     * change - rather than silently falling back to the event path.
     */
    EngineKind engine = EngineKind::Event;

    /**
     * Network shape (see TopologyKind and docs/HIERARCHY.md).  Under
     * Hier, numNodes is the *total* node count and must divide evenly
     * into localRings rings; `engine` selects the backend of every
     * constituent ring.
     */
    TopologyKind topology = TopologyKind::Flat;

    /** Number of local rings M under topology = Hier. */
    std::uint32_t localRings = 4;

    /**
     * Bus levels k_g of the global ring (Hier only); 0 means "same as
     * numBuses".  The global ring has localRings nodes, one per
     * bridge.
     */
    std::uint32_t globalBuses = 0;

    /**
     * Store-and-forward latency of one bridge hop (local ring to
     * bridge buffer, or bridge buffer to next ring), in ticks.  This
     * is also the conservative lookahead window of the sharded
     * parallel executor: no cross-ring influence can propagate in
     * fewer ticks, so shards may run bridgeLatency ticks ahead of the
     * slowest shard without synchronising (docs/HIERARCHY.md).
     */
    sim::Tick bridgeLatency = 8;

    /**
     * Buffer slots per bridge INC.  A message arriving at a full
     * bridge is deflected: it re-enters the Nack/backoff machinery
     * (retryBackoff*) and re-offers itself later.
     */
    std::uint32_t bridgeBuffer = 4;

    /**
     * Worker threads for one hierarchical run: each constituent ring
     * is a shard advanced in parallel windows of bridgeLatency ticks.
     * 0 = one thread per hardware core; 1 = serial.  Results are
     * byte-identical for every value (the window schedule does not
     * depend on thread count).
     */
    std::uint32_t shardJobs = 1;

    /** Invariant-checking level. */
    VerifyLevel verify = VerifyLevel::Cheap;

    /** Seed for all randomness (INC clock jitter, backoff). */
    std::uint64_t seed = 1;

    /**
     * Check the configuration for nonsense (k = 0, inverted period
     * or backoff ranges, a zero Dack window in detailed mode, ...).
     * @return one actionable message per problem found; an empty
     * vector means the configuration is valid.  RmbNetwork runs this
     * at construction and refuses (via fatal) to build from an
     * invalid config.
     */
    std::vector<std::string> validate() const;
};

} // namespace core
} // namespace rmb
