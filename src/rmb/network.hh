/**
 * @file
 * RmbNetwork: the public entry point to the reconfigurable multiple
 * bus simulation.
 *
 * Assembles N INCs and PEs around the N x k segment grid and runs the
 * full protocol of paper section 2: top-bus injection, header
 * propagation with Hack/Nack, pipelined data streaming, Fack
 * teardown, and the systolic compaction that continuously moves
 * virtual buses to the lowest free segments.  The buses, the grid,
 * the circuit steps and the make and break bodies of a move are
 * core::RingEngine's; this engine runs each step as one simulator
 * event and adds the per-INC clocks that decide when moves run,
 * Wait mode (waiter lists and the header timeout), the detailed-flit
 * pump and the multicast record.  Every scheduled event names its
 * bus by a BusHandle, so an event that outlives its bus's generation
 * (a flit in flight when the bus is severed) finds another
 * generation in the slot and does nothing.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "netbase/network.hh"
#include "obs/metrics.hh"
#include "rmb/config.hh"
#include "rmb/inc.hh"
#include "rmb/pe.hh"
#include "rmb/ring_engine.hh"
#include "rmb/status_register.hh"
#include "rmb/types.hh"
#include "rmb/virtual_bus.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace rmb {
namespace core {

/** Id of a multicast/broadcast group (1-based, per network). */
using MulticastId = std::uint64_t;

/**
 * One multicast (or broadcast) delivery: a single virtual bus spans
 * from the source to the farthest member; the other members tap the
 * bus as the flits stream past (the paper's section-1 extension,
 * using the section-2.1 "enhanced" PE interface so taps do not
 * occupy receive ports).
 */
struct MulticastRecord
{
    MulticastId id = 0;
    net::MessageId carrier = net::kNoMessage;
    net::NodeId src = 0;
    /** Member nodes (excludes the source). */
    std::vector<net::NodeId> members;
    /** Tick each member saw the final payload flit; parallel to
     *  members, 0 until the group completes. */
    std::vector<sim::Tick> deliveredAt;
    bool complete = false;
};

/**
 * The RMB network: the reference discrete-event engine.  See
 * RmbConfig for tunables, core::RingEngine for the protocol steps
 * it shares with the cycle kernel, core::Engine for the backend
 * contract, and net::Network for the send/stats interface shared
 * with the baselines.
 */
class RmbNetwork final : public RingEngine
{
  public:
    RmbNetwork(sim::Simulator &simulator, const RmbConfig &config);
    ~RmbNetwork() override;

    /**
     * Deliver @p payload_flits to every node in @p members over one
     * virtual bus spanning to the farthest member (clockwise);
     * intermediate members snoop the passing flits.
     * @return a group id for multicastRecord().
     */
    MulticastId multicast(net::NodeId src,
                          std::vector<net::NodeId> members,
                          std::uint32_t payload_flits);

    /** Multicast to every other node (full-ring virtual bus). */
    MulticastId broadcast(net::NodeId src,
                          std::uint32_t payload_flits);

    /**
     * Look up a multicast group's record; panics with the offending
     * id if no such group was ever created.
     */
    const MulticastRecord &multicastRecord(MulticastId id) const;

    /** INC @p i; panics with the offending index if out of range. */
    const Inc &
    inc(std::uint32_t i) const
    {
        rmb_assert(i < incs_.size(), "no INC with index ", i,
                   " (the ring has ", incs_.size(), " nodes)");
        return *incs_[i];
    }

    /**
     * Derived Table-1 status code of INC @p node's output port at
     * @p level, reconstructed from the virtual-bus structures (the
     * simulator's source of truth); panics if the electrical state
     * would be an illegal code.  PE-driven ports report Straight
     * sources the paper's table does not model and are flagged via
     * @p pe_driven.
     */
    std::uint8_t outputStatus(net::NodeId node, Level level,
                              bool *pe_driven = nullptr) const;

    /** Run every structural invariant check now (any VerifyLevel). */
    void auditInvariants() const override;

  private:
    // ------------------------------------------------------------
    // Interface reserved for Inc (the compaction engine): the INCs
    // are the only callers of the make/break steps, the Lemma-1
    // bookkeeping and the neighbour/RNG accessors below.
    // ------------------------------------------------------------
    friend class Inc;

    /**
     * Execute the make step of every eligible move at @p gap for bus
     * levels of @p parity; returns the records the caller must pass
     * to breakMoves() half a cycle later.
     */
    std::vector<MoveRecord> makeEligibleMoves(GapId gap, int parity);

    /** Execute the break step for records produced by make. */
    void breakMoves(const std::vector<MoveRecord> &records);

    /** Lemma-1 bookkeeping: called by an Inc on every cycle flip. */
    void noteCycleFlip(std::uint32_t inc_index);

    /** Neighbour flag access for the cycle FSMs. */
    const Inc &leftOf(std::uint32_t i) const;
    const Inc &rightOf(std::uint32_t i) const;

    /** RNG stream (backoff jitter, INC clock phase). */
    sim::Random &rng() { return rng_; }
    // --- scheduled events (the bus may be gone by then) ---
    /** The final-flit step, then the multicast record. */
    void landFinalFlit(BusHandle h);
    // Detailed flit-level streaming (Dack flow control).
    void departFlit(BusHandle h, std::uint32_t seq);
    void flitArriveAtDst(BusHandle h, std::uint32_t seq);
    void dackArriveAtSource(BusHandle h);
    /** Nack a header still Blocked headerTimeout after its block. */
    void onHeaderTimeout(BusHandle h);
    void finishMulticast(net::MessageId carrier);

    // --- RingEngine hooks ---
    void scheduleInject(net::NodeId node, sim::Tick delay) override;
    /** One event per step; with detailedFlits the FinalFlit step
     *  starts the flit pump instead, whose last flit lands it. */
    void scheduleStep(StepKind kind, sim::Tick delay,
                      VirtualBus &bus) override;
    /** Teardowns are self-driving and closed-form streaming is one
     *  pre-scheduled event: neither can go silent. */
    bool canStall(const VirtualBus &bus) const override;
    void block(VirtualBus &bus) override;
    void unblock(VirtualBus &bus) override;
    void wakeBlocked(GapId gap, Level level) override;
    void afterStep() override { auditIfFull(); }

    std::vector<std::unique_ptr<Inc>> incs_;

    /** Blocked buses waiting for a segment per gap, FIFO. */
    std::vector<std::deque<BusHandle>> waiters_;

    std::vector<MulticastRecord> multicasts_;
    std::unordered_map<net::MessageId, MulticastId>
        carrierToMulticast_;
};

} // namespace core
} // namespace rmb
