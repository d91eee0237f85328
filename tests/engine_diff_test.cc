/**
 * @file
 * Differential tests pinning the two Engine backends to each other.
 *
 * The event engine (RmbNetwork) and the cycle kernel
 * (CycleKernelEngine) are intentionally different execution models
 * of the same protocol, so tick-for-tick trajectories are not
 * comparable: within-tick event order, per-INC cycle skew and the
 * order of RNG draws all differ.  What *is* comparable - and what
 * these tests sweep - is the outcome: with unbounded retries the
 * NackRetry protocol is deadlock-free, every message delivers, and
 * the canonical outcome digest (id, endpoints, payload, final state,
 * delivering path length) must be byte-identical across engines for
 * every seed, topology, load and fault schedule.  Both engines run
 * under lockstep invariant audits the whole way, so a divergence in
 * *mechanism* (not just outcome) still trips an assert.
 *
 * The harness must also be able to *fail*: the kernel's seeded
 * ShortCircuit mutation delivers every multi-hop message one node
 * early, which the digest catches via pathHops.  That is covered
 * twice - an in-process EXPECT_NE here, and the engine_diff_will_fail
 * ctest variant (WILL_FAIL) which sets RMB_KERNEL_MUTATE=1 and runs
 * the equality sweep against the mutated kernel.
 */

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.hh"

#include "rmb/engine.hh"
#include "rmb/kernel/kernel_engine.hh"
#include "rmb/network.hh"
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

/**
 * A seed-derived open-loop workload, precomputed so both engines see
 * the exact same send() calls at the exact same ticks.
 */
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
            ++dst; // uniform over the other n-1 nodes
        sends.push_back(Send{
            rng.uniformRange(0, horizon), src, dst,
            static_cast<std::uint32_t>(rng.uniformRange(1, 32))});
    }
    return sends;
}

bool
mutateViaEnv()
{
    return common::mutationHook("RMB_KERNEL_MUTATE");
}

/** Builds the network under test (the flat factory by default). */
using Build = std::function<std::unique_ptr<core::Engine>(
    sim::Simulator &, const core::RmbConfig &)>;

/**
 * Run @p cfg under both engines in lockstep chunks, auditing both
 * every chunk, until both reach full delivery (or a generous cap).
 * Returns the two outcome digests.  The kernel mutation applies to
 * flat rings only.
 */
std::pair<std::string, std::string>
runBoth(const core::RmbConfig &cfg, std::uint64_t messages,
        sim::Tick horizon,
        core::CycleKernelEngine::TestMutation mutation =
            core::CycleKernelEngine::TestMutation::None,
        const Build &build = core::makeEngine)
{
    core::RmbConfig event_cfg = cfg;
    event_cfg.engine = core::EngineKind::Event;
    core::RmbConfig kernel_cfg = cfg;
    kernel_cfg.engine = core::EngineKind::Kernel;

    sim::Simulator event_sim;
    sim::Simulator kernel_sim;
    auto event_net = build(event_sim, event_cfg);
    auto kernel_net = build(kernel_sim, kernel_cfg);
    if (auto *kernel = dynamic_cast<core::CycleKernelEngine *>(
            kernel_net.get())) {
        if (mutateViaEnv())
            mutation = core::CycleKernelEngine::TestMutation::
                ShortCircuit;
        kernel->setTestMutation(mutation);
    } else if (mutation !=
               core::CycleKernelEngine::TestMutation::None) {
        ADD_FAILURE() << "a kernel mutation needs a flat kernel ring";
        return {};
    }

    const auto sends = makeWorkload(cfg, messages, horizon);
    for (net::Network *net : {static_cast<net::Network *>(
                                  event_net.get()),
                              static_cast<net::Network *>(
                                  kernel_net.get())}) {
        for (const Send &s : sends) {
            net->simulator().schedule(s.at, [net, s] {
                net->send(s.src, s.dst, s.payload);
            });
        }
    }

    const sim::Tick chunk = 5000;
    const sim::Tick cap = horizon + 4'000'000;
    sim::Tick t = 0;
    bool done = false;
    while (!done && t < cap) {
        t += chunk;
        event_sim.runUntil(t);
        kernel_sim.runUntil(t);
        event_net->auditInvariants();
        kernel_net->auditInvariants();
        // Every message terminal (Delivered or written off): under
        // fault-free configs failed stays 0 and this is the old
        // full-delivery condition.
        done = event_net->stats().delivered +
                       event_net->stats().failed ==
                   messages &&
               kernel_net->stats().delivered +
                       kernel_net->stats().failed ==
                   messages;
    }
    EXPECT_TRUE(done)
        << "engines did not quiesce by tick " << cap << " (event "
        << event_net->stats().delivered << "/" << messages
        << " delivered, kernel " << kernel_net->stats().delivered
        << "/" << messages << ")";
    return {core::outcomeDigest(*event_net),
            core::outcomeDigest(*kernel_net)};
}

core::RmbConfig
baseConfig(std::uint32_t nodes, std::uint32_t buses,
           std::uint64_t seed)
{
    core::RmbConfig cfg;
    cfg.numNodes = nodes;
    cfg.numBuses = buses;
    cfg.seed = seed;
    cfg.maxRetries = 0; // unbounded: NackRetry always delivers
    cfg.verify = core::VerifyLevel::Cheap;
    return cfg;
}

/** The tentpole sweep: N x k x load x seed, fault-free, on the flat
 *  ring and on every composed shape. */
TEST(EngineDiff, OutcomesMatchAcrossTopologiesAndLoads)
{
    for (const std::uint32_t nodes : {4u, 8u, 16u, 33u}) {
        for (const std::uint32_t buses : {2u, 4u}) {
            for (const std::uint64_t load : {40ull, 200ull}) {
                for (const std::uint64_t seed : {1ull, 99ull}) {
                    SCOPED_TRACE("n=" + std::to_string(nodes) +
                                 " k=" + std::to_string(buses) +
                                 " msgs=" + std::to_string(load) +
                                 " seed=" + std::to_string(seed));
                    const auto cfg =
                        baseConfig(nodes, buses, seed);
                    const auto [ev, kn] =
                        runBoth(cfg, load, 20'000);
                    EXPECT_EQ(ev, kn);
                }
            }
        }
    }

    // The composed shapes run the chosen engine in every ring.
    const std::vector<std::pair<const char *, Build>> shapes = {
        {"dual ring 16",
         [](sim::Simulator &s, const core::RmbConfig &c)
             -> std::unique_ptr<core::Engine> {
             return core::makeDualRing(s, c);
         }},
        {"torus 4x4",
         [](sim::Simulator &s, const core::RmbConfig &c)
             -> std::unique_ptr<core::Engine> {
             return core::makeTorus(s, 4, 4, c);
         }},
        {"grid 4x2x2",
         [](sim::Simulator &s, const core::RmbConfig &c)
             -> std::unique_ptr<core::Engine> {
             return core::makeGrid(s, {4, 2, 2}, c);
         }},
    };
    for (const auto &[name, build] : shapes) {
        for (const std::uint64_t load : {40ull, 200ull}) {
            for (const std::uint64_t seed : {1ull, 99ull}) {
                SCOPED_TRACE(std::string(name) +
                             " msgs=" + std::to_string(load) +
                             " seed=" + std::to_string(seed));
                const auto [ev, kn] = runBoth(
                    baseConfig(16, 2, seed), load, 20'000,
                    core::CycleKernelEngine::TestMutation::None,
                    build);
                EXPECT_EQ(ev, kn);
            }
        }
    }
}

/**
 * N = 96 pushes every per-level status bitplane past one 64-bit
 * word (words = ceil(96/64) = 2), so the kernel's word-parallel
 * scans exercise the multi-word carry/wrap paths that N <= 64
 * configurations never touch.  A denser sub-case (k = 6, heavier
 * load) stresses cross-word circuit packing and compaction.
 */
TEST(EngineDiff, OutcomesMatchBeyondOneBitplaneWord)
{
    for (const std::uint64_t seed : {2ull, 41ull}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        const auto cfg = baseConfig(96, 4, seed);
        const auto [ev, kn] = runBoth(cfg, 300, 20'000);
        EXPECT_EQ(ev, kn);
    }
    core::RmbConfig dense = baseConfig(96, 6, 11);
    const auto [ev, kn] = runBoth(dense, 500, 20'000);
    EXPECT_EQ(ev, kn);
}

/** Straight-preference header policy takes different paths through
 *  the level-selection code; outcomes must still match. */
TEST(EngineDiff, OutcomesMatchWithStraightHeaders)
{
    core::RmbConfig cfg = baseConfig(16, 4, 7);
    cfg.headerPolicy = core::HeaderPolicy::PreferStraight;
    const auto [ev, kn] = runBoth(cfg, 120, 20'000);
    EXPECT_EQ(ev, kn);
}

/** Compaction off exercises the no-cycle paths of both engines. */
TEST(EngineDiff, OutcomesMatchWithoutCompaction)
{
    core::RmbConfig cfg = baseConfig(16, 3, 21);
    cfg.enableCompaction = false;
    const auto [ev, kn] = runBoth(cfg, 120, 20'000);
    EXPECT_EQ(ev, kn);
}

/**
 * Fault churn: both engines share the FaultSchedule process whose
 * draws depend only on prior *fault* state, so they see the same
 * (gap, level, time) fault sequence; severed messages retry until
 * they deliver.  The digest (path length of the delivering circuit)
 * is invariant to how many times a message was severed on the way.
 */
TEST(EngineDiff, OutcomesMatchUnderFaultChurn)
{
    for (const std::uint64_t seed : {3ull, 17ull}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        core::RmbConfig cfg = baseConfig(16, 4, seed);
        cfg.transientFaults = true;
        cfg.faultMtbf = 600;
        cfg.faultMttrMin = 200;
        cfg.faultMttrMax = 800;
        const auto [ev, kn] = runBoth(cfg, 100, 20'000);
        EXPECT_EQ(ev, kn);
    }
}

/**
 * Fault churn at the N = 96 geometry, where the kernel's fault
 * bitplanes span two 64-bit words per level: churn exercises the
 * cross-word mask maintenance that the fault-free N=96 sweep never
 * touches.  Transient-only on purpose - with unbounded retries every
 * message delivers and the digest is timing-invariant.  Permanent
 * faults plus bounded retries make the terminal Delivered/Failed
 * split depend on tick-level retry timing, which legitimately
 * differs between execution models; that regime is pinned per-engine
 * by PermanentFaultCampaignIsDeterministicAtN96 below and
 * cross-engine at the accounting level by degrade_test.
 */
TEST(EngineDiff, OutcomesMatchUnderFaultChurnAtN96)
{
    for (const std::uint64_t seed : {3ull, 29ull}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        core::RmbConfig cfg = baseConfig(96, 4, seed);
        cfg.transientFaults = true;
        cfg.faultMtbf = 500;
        cfg.faultMttrMin = 200;
        cfg.faultMttrMax = 800;
        const auto [ev, kn] = runBoth(cfg, 250, 40'000);
        EXPECT_EQ(ev, kn);
    }
}

/**
 * The permanent-fault regime at N = 96: node-wide faults, bounded
 * retries and supervisor write-offs over multi-word fault bitplanes.
 * Cross-engine digest equality is out of reach here (see above), so
 * instead pin what must hold: each engine is bit-reproducible
 * run-to-run, every message reaches a terminal state, and the
 * campaign actually writes some messages off (the permanence path is
 * exercised, not vacuous).
 */
TEST(EngineDiff, PermanentFaultCampaignIsDeterministicAtN96)
{
    for (const core::EngineKind kind :
         {core::EngineKind::Event, core::EngineKind::Kernel}) {
        SCOPED_TRACE(kind == core::EngineKind::Event ? "event"
                                                     : "kernel");
        core::RmbConfig cfg = baseConfig(96, 4, 29);
        cfg.engine = kind;
        cfg.transientFaults = true;
        cfg.faultMtbf = 500;
        cfg.faultMttrMin = 200;
        cfg.faultMttrMax = 800;
        cfg.faultPermanentProb = 0.2;
        cfg.faultNodeProb = 0.15;
        cfg.maxRetries = 30;
        cfg.watchdogTimeout = 1'500;

        const std::uint64_t messages = 250;
        const sim::Tick horizon = 40'000;
        auto campaign = [&]() -> std::pair<std::string,
                                           std::uint64_t> {
            sim::Simulator s;
            auto net = core::makeEngine(s, cfg);
            const auto sends = makeWorkload(cfg, messages, horizon);
            for (const Send &snd : sends) {
                s.schedule(snd.at, [&net, snd] {
                    net->send(snd.src, snd.dst, snd.payload);
                });
            }
            const sim::Tick cap = horizon + 4'000'000;
            while (net->stats().delivered + net->stats().failed <
                       messages &&
                   s.now() < cap) {
                s.runUntil(s.now() + 5000);
                net->auditInvariants();
            }
            EXPECT_EQ(net->stats().delivered + net->stats().failed,
                      messages);
            return {core::outcomeDigest(*net),
                    net->stats().failed};
        };
        const auto [digest_a, failed_a] = campaign();
        const auto [digest_b, failed_b] = campaign();
        EXPECT_EQ(digest_a, digest_b);
        EXPECT_EQ(failed_a, failed_b);
        EXPECT_GT(failed_a, 0u)
            << "campaign never exercised a write-off";
    }
}

/** Multi-port sources/sinks change contention; outcomes match. */
TEST(EngineDiff, OutcomesMatchWithMultiplePorts)
{
    core::RmbConfig cfg = baseConfig(16, 4, 5);
    cfg.sendPorts = 2;
    cfg.receivePorts = 2;
    const auto [ev, kn] = runBoth(cfg, 160, 20'000);
    EXPECT_EQ(ev, kn);
}

/**
 * The harness detects divergence: a kernel that delivers one node
 * early produces a different digest.  If this ever passes with EQ,
 * the digest lost its discriminating power and the whole suite above
 * is vacuous.
 */
TEST(EngineDiff, MutationIsDetected)
{
    if (mutateViaEnv())
        GTEST_SKIP() << "env mutation already active";
    const auto cfg = baseConfig(16, 4, 1);
    const auto [ev, kn] = runBoth(
        cfg, 80, 20'000,
        core::CycleKernelEngine::TestMutation::ShortCircuit);
    EXPECT_NE(ev, kn);
}

/** Same engine, same seed: the kernel itself is deterministic. */
TEST(EngineDiff, KernelIsDeterministic)
{
    const auto cfg = baseConfig(16, 4, 13);
    const auto a = runBoth(cfg, 100, 20'000);
    const auto b = runBoth(cfg, 100, 20'000);
    EXPECT_EQ(a.second, b.second);
    EXPECT_EQ(a.first, b.first);
}

// --- kernel unit tests (exact behaviour, not just equivalence) ---

/**
 * One uncontended message: every protocol timestamp is closed-form,
 * and both engines must produce the exact same latency.
 */
TEST(KernelEngine, SingleMessageExactLatency)
{
    core::RmbConfig cfg = baseConfig(8, 2, 1);
    cfg.enableCompaction = false;
    for (const auto kind :
         {core::EngineKind::Event, core::EngineKind::Kernel}) {
        cfg.engine = kind;
        sim::Simulator sim;
        auto net = core::makeEngine(sim, cfg);
        const auto id = net->send(0, 3, 16);
        while (!net->quiescent())
            sim.run(1024);
        const net::Message &m = net->message(id);
        ASSERT_EQ(m.state, net::MessageState::Delivered)
            << core::engineKindName(kind);
        // 3 header hops + Hack back over 3 gaps + (16+1) flits from
        // the source + 3 pipeline stages for the final flit.
        const sim::Tick expect = 3 * cfg.headerHopDelay +
                                 3 * cfg.ackHopDelay +
                                 (16 + 1) * cfg.flitDelay +
                                 3 * cfg.flitDelay;
        EXPECT_EQ(m.delivered - m.firstAttempt, expect)
            << core::engineKindName(kind);
        EXPECT_EQ(m.pathHops, 3u) << core::engineKindName(kind);
    }
}

/** The kernel compacts: a bus parked below a finished one sinks. */
TEST(KernelEngine, CompactionMovesBusesDown)
{
    core::RmbConfig cfg = baseConfig(16, 4, 2);
    cfg.engine = core::EngineKind::Kernel;
    cfg.verify = core::VerifyLevel::Full;
    sim::Simulator sim;
    core::CycleKernelEngine net(sim, cfg);
    // A staggered random load: teardowns interleave with live
    // buses, so freed segments open legal Figure-7 moves.  (A
    // perfectly symmetric all-to-all burst would produce none: the
    // staircase packing leaves no hop with a free segment below it
    // and a conforming neighbour window.)
    sim::Random rng(5);
    const std::uint64_t messages = 200;
    for (std::uint64_t i = 0; i < messages; ++i) {
        const auto src =
            static_cast<net::NodeId>(rng.uniformInt(16));
        auto dst = static_cast<net::NodeId>(rng.uniformInt(15));
        if (dst >= src)
            ++dst;
        const auto pay =
            static_cast<std::uint32_t>(8 + rng.uniformInt(60));
        sim.schedule(rng.uniformInt(4000), [&net, src, dst, pay] {
            net.send(src, dst, pay);
        });
    }
    do {
        sim.run(1024);
    } while (!net.quiescent());
    EXPECT_EQ(net.stats().delivered, messages);
    EXPECT_GT(net.cycles(), 0u);
    EXPECT_GT(net.rmbStats().compactionMoves.value(), 0u);
    EXPECT_EQ(net.rmbStats().maxCycleSkew.value(), 0u);
    net.auditInvariants();
}

/** validate() refuses kernel-incompatible options by name. */
TEST(KernelEngine, ValidateRefusesUnsupportedOptions)
{
    core::RmbConfig cfg = baseConfig(8, 2, 1);
    cfg.engine = core::EngineKind::Kernel;
    ASSERT_TRUE(cfg.validate().empty());

    core::RmbConfig flits = cfg;
    flits.detailedFlits = true;
    const auto p1 = flits.validate();
    ASSERT_EQ(p1.size(), 1u);
    EXPECT_NE(p1[0].find("detailedFlits"), std::string::npos);
    flits.engine = core::EngineKind::Event;
    EXPECT_TRUE(flits.validate().empty());

    core::RmbConfig wait = cfg;
    wait.blocking = core::BlockingPolicy::Wait;
    const auto p2 = wait.validate();
    ASSERT_EQ(p2.size(), 1u);
    EXPECT_NE(p2[0].find("NackRetry"), std::string::npos);

    // The delivery supervisor is engine-generic: watchdogTimeout is
    // accepted on the kernel backend (docs/ENGINE.md).
    core::RmbConfig dog = cfg;
    dog.watchdogTimeout = 1000;
    EXPECT_TRUE(dog.validate().empty());
}

/** The factory dispatches on RmbConfig::engine. */
TEST(KernelEngine, FactoryBuildsTheRequestedBackend)
{
    sim::Simulator sim;
    core::RmbConfig cfg = baseConfig(8, 2, 1);
    cfg.engine = core::EngineKind::Event;
    auto ev = core::makeEngine(sim, cfg);
    EXPECT_NE(dynamic_cast<core::RmbNetwork *>(ev.get()), nullptr);
    sim::Simulator sim2;
    cfg.engine = core::EngineKind::Kernel;
    auto kn = core::makeEngine(sim2, cfg);
    EXPECT_NE(dynamic_cast<core::CycleKernelEngine *>(kn.get()),
              nullptr);
    EXPECT_EQ(std::string(core::engineKindName(cfg.engine)),
              "kernel");
}

} // namespace
