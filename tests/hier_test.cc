/**
 * @file
 * Correctness tests of the hierarchical multi-ring engine
 * (makeHier in src/rmb/ring_graph.hh, docs/HIERARCHY.md).
 *
 * The load-bearing equivalences:
 *
 *  - M = 1 is *exactly* a flat ring: no global ring, no bridges, and
 *    the single shard runs the identical engine on the identical
 *    derived seed, so the outcome digest must match a standalone
 *    flat network byte for byte.
 *  - The sharded executor is byte-deterministic: the same config run
 *    with any shardJobs value produces the same digest and stats.
 *  - Bridge hop accounting is exact for an uncontended message, so
 *    the digest has discriminating power over the bridge path - the
 *    RMB_HIER_MUTATE seeded bug (drop the bridge hop) fails the
 *    CrossRingPathHopsAreExact expectation, which the
 *    hier_will_fail ctest variant runs with the mutation active.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.hh"
#include "rmb/engine.hh"
#include "rmb/ring_graph.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace {

using namespace rmb;

struct Send
{
    sim::Tick at;
    net::NodeId src;
    net::NodeId dst;
    std::uint32_t payload;
};

/** Seed-derived open-loop workload (the engine_diff_test recipe). */
std::vector<Send>
makeWorkload(const core::RmbConfig &cfg, std::uint64_t messages,
             sim::Tick horizon)
{
    sim::Random rng = sim::Random(cfg.seed).split(0x5e9d);
    std::vector<Send> sends;
    sends.reserve(messages);
    for (std::uint64_t i = 0; i < messages; ++i) {
        const auto src = static_cast<net::NodeId>(
            rng.uniformInt(cfg.numNodes));
        auto dst = static_cast<net::NodeId>(
            rng.uniformInt(cfg.numNodes - 1));
        if (dst >= src)
            ++dst;
        sends.push_back(Send{
            rng.uniformRange(0, horizon), src, dst,
            static_cast<std::uint32_t>(rng.uniformRange(1, 16))});
    }
    return sends;
}

bool
mutateViaEnv()
{
    return common::mutationHook("RMB_HIER_MUTATE");
}

/** Run @p cfg to quiescence under periodic invariant audits and
 *  return the outcome digest. */
std::string
runToDigest(const core::RmbConfig &cfg, std::uint64_t messages,
            sim::Tick horizon)
{
    sim::Simulator sim;
    auto net = core::makeEngine(sim, cfg);
    for (const Send &s : makeWorkload(cfg, messages, horizon)) {
        sim.schedule(s.at, [&net, s] {
            net->send(s.src, s.dst, s.payload);
        });
    }
    // Past the horizon first: quiescent() is vacuously true until
    // the scheduled sends have actually executed.
    const sim::Tick cap = horizon + 4'000'000;
    sim::Tick t = horizon + 1;
    sim.runUntil(t);
    net->auditInvariants();
    while (!net->quiescent() && t < cap) {
        t += 5000;
        sim.runUntil(t);
        net->auditInvariants();
    }
    EXPECT_TRUE(net->quiescent())
        << "hier run did not quiesce by tick " << cap << " ("
        << net->stats().delivered << "+" << net->stats().failed
        << " of " << net->stats().injected << ")";
    return core::outcomeDigest(*net);
}

core::RmbConfig
hierConfig(std::uint32_t nodes, std::uint32_t rings,
           std::uint64_t seed)
{
    core::RmbConfig cfg;
    cfg.topology = core::TopologyKind::Hier;
    cfg.numNodes = nodes;
    cfg.localRings = rings;
    cfg.numBuses = 4;
    cfg.seed = seed;
    cfg.maxRetries = 0; // unbounded: NackRetry always delivers
    cfg.verify = core::VerifyLevel::Cheap;
    return cfg;
}

/**
 * M = 1 has no global ring and no bridges; the one shard *is* a flat
 * ring on the derived sub-seed.  The digests must match exactly:
 * every message, state, timestamp-independent field and path length.
 */
TEST(HierNetwork, SingleRingMatchesFlatRing)
{
    for (const std::uint64_t seed : {1ull, 23ull}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        const core::RmbConfig hier = hierConfig(16, 1, seed);

        core::RmbConfig flat;
        flat.numNodes = 16;
        flat.numBuses = 4;
        flat.maxRetries = 0;
        flat.verify = core::VerifyLevel::Cheap;
        // The shard's seed, not the parent's: sub-ring seeds are a
        // documented pure function of (parent seed, ring index).
        flat.seed = core::localRingSeed(hier, 0);
        // The *workload* must still derive from the parent seed.
        core::RmbConfig flat_wl = flat;
        flat_wl.seed = seed;

        sim::Simulator fsim;
        auto fnet = core::makeEngine(fsim, flat);
        for (const Send &s : makeWorkload(flat_wl, 120, 10'000)) {
            fsim.schedule(s.at, [&fnet, s] {
                fnet->send(s.src, s.dst, s.payload);
            });
        }
        fsim.runUntil(10'001); // execute every scheduled send
        while (!fnet->quiescent())
            fsim.run(4096);

        EXPECT_EQ(runToDigest(hier, 120, 10'000),
                  core::outcomeDigest(*fnet));
    }
}

/** The same run on 1 thread and on 3 threads is byte-identical. */
TEST(HierNetwork, DigestIndependentOfShardJobs)
{
    core::RmbConfig j1 = hierConfig(64, 8, 7);
    core::RmbConfig j3 = j1;
    j1.shardJobs = 1;
    j3.shardJobs = 3;
    EXPECT_EQ(runToDigest(j1, 250, 15'000),
              runToDigest(j3, 250, 15'000));
}

/**
 * One uncontended cross-ring message has a closed-form path: the
 * (unidirectional) local leg to the bridge, one bridge hop, the
 * global leg, a second bridge hop, and the local leg to the
 * destination.  This is the expectation the RMB_HIER_MUTATE seeded
 * bug breaks (it drops the bridge hops), so the hier_will_fail
 * ctest variant proves the harness can fail.
 */
TEST(HierNetwork, CrossRingPathHopsAreExact)
{
    const core::RmbConfig cfg = hierConfig(32, 4, 3); // L = 8
    sim::Simulator sim;
    auto net = core::makeEngine(sim, cfg);
    // src 3 (ring 0, local 3), dst 21 (ring 2, local 5).
    const auto id = net->send(3, 21, 8);
    while (!net->quiescent())
        sim.run(4096);
    const net::Message &m = net->message(id);
    ASSERT_EQ(m.state, net::MessageState::Delivered);
    // local 3 -> 0: (0 - 3) mod 8 = 5 hops; bridge; global 0 -> 2:
    // 2 hops; bridge; local 0 -> 5: 5 hops.
    EXPECT_EQ(m.pathHops, 5u + 1u + 2u + 1u + 5u);
}

/** A message between two bridge nodes exercises the Global-stage
 *  early-finish path (no LocalIn leg). */
TEST(HierNetwork, BridgeToBridgeSkipsTheLocalLegs)
{
    const core::RmbConfig cfg = hierConfig(32, 4, 5); // L = 8
    sim::Simulator sim;
    auto net = core::makeEngine(sim, cfg);
    // Node 8 is ring 1's bridge, node 24 ring 3's: one bridge
    // admission at the source, the global leg, done on delivery.
    const auto id = net->send(8, 24, 8);
    while (!net->quiescent())
        sim.run(4096);
    const net::Message &m = net->message(id);
    ASSERT_EQ(m.state, net::MessageState::Delivered);
    EXPECT_EQ(m.pathHops, 1u + 2u); // bridge + global 1 -> 3
}

/** The seeded bridge mutation must change the digest; otherwise the
 *  differential surface above is vacuous. */
TEST(HierNetwork, MutationIsDetected)
{
    if (mutateViaEnv())
        GTEST_SKIP() << "env mutation already active";
    const core::RmbConfig cfg = hierConfig(64, 8, 11);
    const std::string clean = runToDigest(cfg, 200, 12'000);
    ::setenv("RMB_HIER_MUTATE", "1", 1);
    const std::string mutated = runToDigest(cfg, 200, 12'000);
    ::unsetenv("RMB_HIER_MUTATE");
    EXPECT_NE(clean, mutated);
}

/**
 * Fault injection addresses the whole hier domain: local gaps first
 * (flat node numbering), then the M global-ring bundles.  Failing a
 * global segment mid-run severs global circuits; with unbounded
 * retries every message still delivers, and repair restores the
 * census.
 */
TEST(HierNetwork, GlobalBridgeSegmentFaultsRecover)
{
    core::RmbConfig cfg = hierConfig(32, 4, 17);
    sim::Simulator sim;
    auto net = core::makeEngine(sim, cfg);
    auto *hier = dynamic_cast<core::RingGraph *>(net.get());
    ASSERT_NE(hier, nullptr);
    EXPECT_EQ(hier->faultDomainGaps(), 32u + 4u);
    EXPECT_EQ(hier->faultDomainLevels(0), 4);
    EXPECT_EQ(hier->faultDomainLevels(32), 4);

    for (const Send &s : makeWorkload(cfg, 150, 10'000)) {
        sim.schedule(s.at, [&net, s] {
            net->send(s.src, s.dst, s.payload);
        });
    }
    // Sever one level of every global bundle and one local gap for
    // a while; the NackRetry machinery must route around or retry
    // through the outage.
    sim.schedule(2'000, [&net] {
        net->failSegment(32, 1);
        net->failSegment(34, 1);
        net->failSegment(5, 0);
    });
    sim.schedule(2'500, [&net] {
        EXPECT_TRUE(net->segmentFaulty(32, 1));
        EXPECT_TRUE(net->segmentFaulty(34, 1));
        EXPECT_TRUE(net->segmentFaulty(5, 0));
        EXPECT_EQ(net->faultySegments(), 3u);
    });
    sim.schedule(6'000, [&net] {
        net->repairSegment(32, 1);
        net->repairSegment(34, 1);
        net->repairSegment(5, 0);
    });

    sim::Tick t = 10'001; // past the last send and the repairs
    sim.runUntil(t);
    while (!net->quiescent() && t < 4'000'000) {
        t += 5000;
        sim.runUntil(t);
        net->auditInvariants();
    }
    ASSERT_TRUE(net->quiescent());
    EXPECT_EQ(net->stats().injected, 150u);
    EXPECT_EQ(net->stats().failed, 0u);
    EXPECT_EQ(net->faultySegments(), 0u);
    EXPECT_EQ(net->rmbStats().faultsInjected.value(), 3u);
    EXPECT_EQ(net->rmbStats().faultsRepaired.value(), 3u);
}

/** A one-slot bridge under converging load must deflect (bounded
 *  buffering is real), yet every message still delivers. */
TEST(HierNetwork, FullBridgesDeflectAndRecover)
{
    core::RmbConfig cfg = hierConfig(32, 4, 29);
    cfg.bridgeBuffer = 1;
    sim::Simulator sim;
    auto net = core::makeEngine(sim, cfg);
    // All traffic converges on ring 0 from the other three rings.
    sim::Random rng(cfg.seed);
    for (std::uint32_t i = 0; i < 120; ++i) {
        const auto src = static_cast<net::NodeId>(
            8 + rng.uniformInt(24)); // rings 1..3
        const auto dst =
            static_cast<net::NodeId>(rng.uniformInt(8)); // ring 0
        sim.schedule(rng.uniformRange(0, 3'000),
                     [&net, src, dst] { net->send(src, dst, 4); });
    }
    sim::Tick t = 3'001; // past the last scheduled send
    sim.runUntil(t);
    while (!net->quiescent() && t < 4'000'000) {
        t += 5000;
        sim.runUntil(t);
        net->auditInvariants();
    }
    ASSERT_TRUE(net->quiescent());
    EXPECT_EQ(net->stats().delivered, 120u);
    EXPECT_GT(
        net->metrics().counter("hier.bridge.deflections").value(),
        0u);
    EXPECT_EQ(
        net->metrics().counter("hier.bridge.arrivals").value(),
        net->metrics().counter("hier.bridge.departures").value());
}

/** validate() names each hier-specific constraint. */
TEST(HierNetwork, ValidateRefusesBadHierConfigs)
{
    core::RmbConfig cfg = hierConfig(32, 4, 1);
    ASSERT_TRUE(cfg.validate().empty());

    core::RmbConfig ragged = cfg;
    ragged.localRings = 5; // 32 % 5 != 0
    EXPECT_FALSE(ragged.validate().empty());

    core::RmbConfig zero_latency = cfg;
    zero_latency.bridgeLatency = 0;
    EXPECT_FALSE(zero_latency.validate().empty());

    // The delivery supervisor is engine-generic: watchdogTimeout is
    // accepted under topology=hier (docs/ENGINE.md).
    core::RmbConfig dog = cfg;
    dog.watchdogTimeout = 500;
    EXPECT_TRUE(dog.validate().empty());

    core::RmbConfig flat_gb = cfg;
    flat_gb.topology = core::TopologyKind::Flat;
    flat_gb.globalBuses = 2;
    EXPECT_FALSE(flat_gb.validate().empty());
}

} // namespace
