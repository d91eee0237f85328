/**
 * @file
 * Core identifiers and enums of the RMB model.
 *
 * Geometry: N nodes on a ring, k physical bus segments between each
 * pair of adjacent nodes.  "Gap g" names the bundle of k segments
 * between node g and node (g+1) mod N; "level l" in [0, k) names one
 * segment within a gap, level k-1 being the *top* bus where new
 * requests are injected (paper section 2.2).
 */

#pragma once

#include <cstdint>

#include "netbase/message.hh"

namespace rmb {
namespace core {

/** Index of the inter-node gap between node g and node g+1 (mod N). */
using GapId = std::uint32_t;

/** Bus level within a gap; 0 = bottom, k-1 = top (injection) bus. */
using Level = std::int32_t;

/** Sentinel for "no level". */
constexpr Level kNoLevel = -1;

/** Unique id of a virtual bus (one per message attempt lifetime). */
using VirtualBusId = std::uint64_t;

/** Sentinel for "no virtual bus". */
constexpr VirtualBusId kNoBus = 0;

/** A bus record's slot in the flat engines' bus pool, and the owner
 *  of a claimed segment. */
using BusKey = std::uint64_t;

/** Sentinel for "no bus record" (and "unclaimed segment"). */
constexpr BusKey kNoKey = ~BusKey{0};

/**
 * A bus named across a scheduled step: its pool slot in the low 32
 * bits, the slot's generation in the high 32.  A slot is reused once
 * its bus retires, so a handle of an earlier life no longer resolves.
 * One word keeps a `[this, handle]` capture inside std::function's
 * inline buffer.
 */
using BusHandle = std::uint64_t;

/**
 * What a blocked header flit does when no reachable output segment is
 * free at an intermediate INC.
 */
enum class BlockingPolicy : std::uint8_t
{
    /**
     * Hold the partial virtual bus and wait for compaction or a
     * teardown to free a reachable segment (wormhole-style blocking).
     */
    Wait,
    /**
     * Tear the partial virtual bus down (as if Nacked) and retry
     * later from the source; keeps the network trivially
     * deadlock-free and matches Theorem 1's "provided if available"
     * reading.
     */
    NackRetry,
};

/**
 * Which output level an advancing header flit prefers at each INC
 * (among the legal {l-1, l, l+1} from its input level l).
 */
enum class HeaderPolicy : std::uint8_t
{
    /**
     * Take the lowest free reachable level (eager descent): the
     * header pre-compacts its own path one level per hop.  This is
     * the engineering reading of "make use of only the lowest
     * physical free bus segments".
     */
    PreferLowest,
    /**
     * Stay at the current level when free (top-bus propagation, the
     * paper's literal Figure-3 description), then try below, then
     * above; the compaction protocol alone sinks the circuit later.
     */
    PreferStraight,
};

/**
 * Which simulation backend executes the RMB protocol.  Both engines
 * implement the same `core::Engine` interface (engine.hh) and the
 * same outcome semantics; they differ in *how* time advances.
 */
enum class EngineKind : std::uint8_t
{
    /**
     * The original discrete-event path (`RmbNetwork`): every header
     * hop, INC cycle tick and teardown step is one
     * `sim::EventQueue` event.  Most faithful to per-INC clock skew;
     * the reference implementation.
     */
    Event,
    /**
     * Time-stepped structure-of-arrays cycle kernel
     * (`CycleKernelEngine`): segment occupancy and fault state live
     * in uint64_t bitplanes, compaction runs as a synchronous global
     * cycle with word-parallel candidate filtering, and the protocol
     * agenda is a bucket timing wheel.  Several times faster (the
     * bench_gate floors in bench_microperf.cc); refuses
     * configurations it cannot model (see RmbConfig::validate()).
     */
    Kernel,
};

/** Stable lowercase name of @p kind ("event" / "kernel"). */
const char *engineKindName(EngineKind kind);

/**
 * Shape of the network an RmbConfig describes.  Flat is the paper's
 * single ring; Hier composes M local rings under one global ring with
 * store-and-forward bridge INCs (docs/HIERARCHY.md).
 */
enum class TopologyKind : std::uint8_t
{
    /** One RMB ring of numNodes nodes (the paper's geometry). */
    Flat,
    /**
     * localRings local rings of numNodes/localRings nodes each, plus
     * one global ring of localRings nodes, joined by bridge INCs
     * (`makeHier`, src/rmb/ring_graph.hh).  Each constituent ring is a
     * complete RMB instance; bridges store-and-forward between
     * levels with bounded buffering and Nack-style deflection.
     */
    Hier,
};

/** How much invariant checking the network performs while running. */
enum class VerifyLevel : std::uint8_t
{
    Off,    //!< no checks (large benches)
    Cheap,  //!< O(1) checks on each mutation
    Full,   //!< full-structure audit on each mutation (tests)
};

} // namespace core
} // namespace rmb
