/**
 * @file
 * Experiment E21: hierarchical multi-ring scaling curves and the
 * hier-vs-flat-vs-mesh comparison (docs/HIERARCHY.md).
 *
 * Three sections, all in one JSON report (--json):
 *
 *  - "scaling": one large hier run (kernel-engine local rings) per
 *    node count - up to 131072 nodes in 1024 rings - executed with
 *    shardJobs 1, 2 and 4.  Per size the report carries the
 *    delivered count, an FNV-1a hash of the outcome digest, and a
 *    "deterministic" flag (1 iff all three job counts produced the
 *    same digest).
 *  - "speedup": the parallel executor's self-speedup at 4 threads
 *    on the largest size, with a hard floor (--min-speedup,
 *    default 1.5x) that sets the exit code.  The floor is enforced
 *    only where the process may run on >= 4 CPUs (its affinity
 *    mask); elsewhere the floor leaf reports 1 so the *determinism*
 *    leaves still gate everywhere.
 *  - "comparison": the same mostly-local workload through a
 *    1024-node hierarchical RMB, the flat 1024-node ring, and a
 *    32x32 circuit-switched mesh.
 *
 * Every host-measured leaf - wall seconds, throughput, the measured
 * speedup, "threads_available" and "enforced" - sits under the
 * top-level "host" member, at the path it would have outside it.
 * The rest of the --fast report is byte-deterministic:
 * tests/data/BENCH_hierarchy.json is its golden minus "host" and
 * "build_type", and the hier_gate ctest checks it.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "baselines/mesh.hh"
#include "bench/bench_util.hh"
#include "obs/json.hh"
#include "rmb/engine.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace {

using namespace rmb;
using bench::Send;

/**
 * A seed-derived mostly-local open-loop workload: 7/8 of messages
 * stay inside the source's @p ring -node neighbourhood, 1/8 cross
 * into the next couple of neighbourhoods - the regime a hierarchy
 * is engineered for.  (Uniform all-to-all traffic on a 1024-node
 * unidirectional global ring would mean ~512-hop global circuits;
 * that saturates any ring and measures nothing but queueing.)
 * Pure function of the arguments, so every network in a comparison
 * sees the identical send sequence.
 */
std::vector<Send>
localishWorkload(std::uint32_t nodes, std::uint32_t ring,
                 std::uint64_t messages, sim::Tick horizon,
                 std::uint64_t seed)
{
    sim::Random rng = sim::Random(seed).split(0xbe9c);
    std::vector<Send> sends;
    sends.reserve(messages);
    for (std::uint64_t i = 0; i < messages; ++i) {
        const auto src =
            static_cast<net::NodeId>(rng.uniformInt(nodes));
        net::NodeId dst;
        if (rng.uniformInt(8) != 0) {
            const net::NodeId base = (src / ring) * ring;
            dst = base + static_cast<net::NodeId>(
                             rng.uniformInt(ring - 1));
            if (dst >= src)
                ++dst;
        } else {
            // Cross-ring, forward into the next one or two rings:
            // short global legs (the ring is unidirectional).
            dst = static_cast<net::NodeId>(
                (src + ring + rng.uniformInt(2u * ring)) % nodes);
        }
        sends.push_back(Send{rng.uniformRange(0, horizon), src, dst});
    }
    return sends;
}

/** CPUs this process may run on: its affinity mask where the OS
 *  exposes one (a container or taskset may allow fewer CPUs than
 *  the machine has), else the hardware thread count. */
unsigned
usableCpus()
{
#if defined(__linux__)
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
#endif
    return std::thread::hardware_concurrency();
}

struct RunOut
{
    double seconds = 0.0;
    std::uint64_t delivered = 0;
    std::uint64_t injected = 0;
    double meanLatency = 0.0;
    std::string fingerprint;
};

/** Schedule @p sends, run to quiescence, and measure.  Only the
 *  run loop is timed; construction and scheduling are not. */
RunOut
runToQuiescence(net::Network &network, sim::Simulator &simulator,
                const std::vector<Send> &sends, sim::Tick horizon,
                std::uint32_t payload)
{
    bench::scheduleSends(simulator, network, sends, payload);
    const auto t0 = std::chrono::steady_clock::now();
    // Past the injection horizon first: quiescent() is vacuously
    // true while scheduled sends are still pending.
    simulator.runUntil(horizon + 1);
    while (!network.quiescent()) {
        if (simulator.run(65536) == 0) {
            std::cerr << "bench_hierarchy: event queue drained at "
                      << "tick " << simulator.now()
                      << " before quiescence ("
                      << network.stats().delivered.value() << "+"
                      << network.stats().failed.value() << " of "
                      << network.stats().injected.value()
                      << " accounted)\n";
            std::abort();
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    RunOut out;
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    out.delivered = network.stats().delivered.value();
    out.injected = network.stats().injected.value();
    out.meanLatency = network.stats().totalLatency.mean();
    out.fingerprint = bench::digestFingerprint(network);
    return out;
}

core::RmbConfig
hierConfig(std::uint32_t nodes, std::uint32_t rings,
           std::uint32_t jobs)
{
    core::RmbConfig cfg;
    cfg.topology = core::TopologyKind::Hier;
    cfg.numNodes = nodes;
    cfg.localRings = rings;
    cfg.numBuses = 4;
    cfg.engine = core::EngineKind::Kernel;
    cfg.verify = core::VerifyLevel::Cheap;
    cfg.shardJobs = jobs;
    cfg.seed = 42;
    return cfg;
}

RunOut
runHier(std::uint32_t nodes, std::uint32_t rings,
        std::uint32_t jobs, const std::vector<Send> &sends,
        sim::Tick horizon)
{
    sim::Simulator simulator;
    auto net =
        core::makeEngine(simulator, hierConfig(nodes, rings, jobs));
    return runToQuiescence(*net, simulator, sends, horizon, 16);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness h(argc, argv, "E21",
                     "hierarchical multi-ring scaling and the"
                     " hier-vs-flat-vs-mesh comparison",
                     {.minSpeedup = 1.5});
    const bool fast = h.fast();
    const double min_speedup = h.minSpeedup();
    struct Size
    {
        std::uint32_t nodes;
        std::uint32_t rings;
    };
    // The scaling grid tops out at 131072 nodes in 1024 rings of
    // 128 (the >= 10^5 acceptance point); --fast trims the middle
    // size and the per-size load but keeps both gated endpoints.
    std::vector<Size> grid = {{8192, 64}, {131072, 1024}};
    if (!fast)
        grid.insert(grid.begin() + 1, Size{32768, 256});
    const std::vector<std::uint32_t> job_counts = {1, 2, 4};
    const sim::Tick horizon = 4'000;

    const unsigned cpus = usableCpus();
    const bool enforce = cpus >= 4;

    // --- scaling: nodes x threads ---
    obs::JsonWriter w;
    obs::JsonWriter host;
    w.beginObject();
    host.beginObject();
    host.beginObject("scaling");
    double largest_j1 = 0.0;
    double largest_j4 = 0.0;
    bool all_deterministic = true;
    for (const Size &sz : grid) {
        const std::uint64_t messages = fast ? sz.nodes / 16
                                            : sz.nodes / 8;
        const auto sends = localishWorkload(
            sz.nodes, sz.nodes / sz.rings, messages, horizon, 42);
        std::cout << "scaling n=" << sz.nodes << ",m=" << sz.rings
                  << ": " << messages << " msgs ..." << std::endl;
        std::vector<RunOut> outs;
        for (const std::uint32_t jobs : job_counts)
            outs.push_back(
                runHier(sz.nodes, sz.rings, jobs, sends, horizon));
        const bool deterministic = std::all_of(
            outs.begin(), outs.end(), [&](const RunOut &o) {
                return o.fingerprint == outs.front().fingerprint &&
                       o.delivered == outs.front().delivered;
            });
        all_deterministic = all_deterministic && deterministic;
        if (sz.nodes == grid.back().nodes) {
            largest_j1 = outs[0].seconds;
            largest_j4 = outs[2].seconds;
        }
        const std::string key = "n=" + std::to_string(sz.nodes) +
                                ",m=" + std::to_string(sz.rings);
        w.beginObject(key);
        w.field("messages", messages);
        w.field("delivered", outs.front().delivered);
        w.field("digest_fnv", outs.front().fingerprint);
        w.field("deterministic", deterministic ? 1.0 : 0.0);
        w.endObject();
        host.beginObject(key);
        for (std::size_t j = 0; j < job_counts.size(); ++j) {
            const std::string suffix =
                "_j" + std::to_string(job_counts[j]);
            host.field("seconds" + suffix, outs[j].seconds);
            host.field("msgs_per_sec" + suffix,
                       outs[j].seconds > 0.0
                           ? static_cast<double>(outs[j].delivered) /
                                 outs[j].seconds
                           : 0.0);
        }
        host.endObject();
        std::cout << "scaling " << key << ": " << messages
                  << " msgs, j1 " << outs[0].seconds << "s, j2 "
                  << outs[1].seconds << "s, j4 " << outs[2].seconds
                  << "s, digest " << outs.front().fingerprint
                  << (deterministic ? "" : " NON-DETERMINISTIC")
                  << "\n";
    }
    w.endObject();
    host.endObject();
    h.report().setRaw("scaling", w.str());

    // --- speedup: the 4-thread floor on the largest size ---
    const double speedup =
        largest_j4 > 0.0 ? largest_j1 / largest_j4 : 0.0;
    const bool floor_holds = !enforce || speedup >= min_speedup;
    obs::JsonWriter sp;
    sp.beginObject();
    sp.field("required", min_speedup);
    sp.field("floor_holds", floor_holds ? 1.0 : 0.0);
    sp.endObject();
    h.report().setRaw("speedup", sp.str());
    host.beginObject("speedup");
    host.field("threads_available", std::uint64_t{cpus});
    host.field("enforced", enforce ? 1.0 : 0.0);
    host.field("self_speedup_4t", speedup);
    host.endObject();
    std::cout << "speedup: " << speedup << "x at 4 threads (floor "
              << min_speedup << "x "
              << (enforce ? (floor_holds ? "holds" : "VIOLATED")
                          : "not enforced: < 4 usable CPUs")
              << ")\n";

    // --- comparison: hier vs flat vs mesh, identical workload ---
    obs::JsonWriter cmp;
    cmp.beginObject();
    host.beginObject("comparison");
    {
        const std::uint32_t n = 1024;
        const std::uint64_t messages = fast ? 1'500 : 4'000;
        // Forward-window traffic (dst = src + U[1,64] mod n): every
        // path is short on the flat unidirectional ring too, so all
        // three networks drain in bounded simulated time.  Under
        // hier M=32 about half of these still cross a ring boundary
        // and exercise the bridges.  (Backward-local traffic would
        // mean ~1000-hop circuits on the flat ring - the very
        // pathology the hierarchy removes - and the flat leg of the
        // comparison would take millions of simulated ticks.)
        std::vector<Send> sends;
        sends.reserve(messages);
        {
            sim::Random rng = sim::Random(42).split(0xc09a5e);
            for (std::uint64_t i = 0; i < messages; ++i) {
                const auto src =
                    static_cast<net::NodeId>(rng.uniformInt(n));
                const auto dst = static_cast<net::NodeId>(
                    (src + 1 + rng.uniformInt(64)) % n);
                sends.push_back(
                    Send{rng.uniformRange(0, 6'000), src, dst});
            }
        }
        auto emit = [&](const std::string &key, const RunOut &o) {
            cmp.beginObject(key);
            cmp.field("delivered", o.delivered);
            cmp.field("completed",
                      o.delivered == o.injected ? 1.0 : 0.0);
            cmp.field("mean_latency", o.meanLatency);
            cmp.endObject();
            host.beginObject(key);
            host.field("seconds", o.seconds);
            host.endObject();
            std::cout << "comparison " << key << ": " << o.delivered
                      << " delivered, mean latency "
                      << o.meanLatency << ", " << o.seconds
                      << "s\n";
        };
        emit("hier,n=1024,m=32", runHier(n, 32, 1, sends, 6'000));
        {
            sim::Simulator s;
            core::RmbConfig cfg;
            cfg.numNodes = n;
            cfg.numBuses = 4;
            cfg.engine = core::EngineKind::Kernel;
            cfg.verify = core::VerifyLevel::Cheap;
            cfg.seed = 42;
            auto net = core::makeEngine(s, cfg);
            emit("flat,n=1024",
                 runToQuiescence(*net, s, sends, 6'000, 16));
        }
        {
            sim::Simulator s;
            baseline::CircuitConfig circuit;
            circuit.seed = 42;
            baseline::MeshNetwork mesh(s, 32, 32, circuit);
            emit("mesh,32x32",
                 runToQuiescence(mesh, s, sends, 6'000, 16));
        }
    }
    cmp.endObject();
    h.report().setRaw("comparison", cmp.str());
    host.endObject();
    host.endObject();
    h.report().setRaw("host", host.str());

    if (!all_deterministic) {
        std::cerr << "bench_hierarchy: shard-parallel runs were NOT"
                     " byte-deterministic across job counts\n";
        return 1;
    }
    if (enforce && !floor_holds) {
        std::cerr << "bench_hierarchy: 4-thread self-speedup "
                  << speedup << "x is below the " << min_speedup
                  << "x floor\n";
        return 1;
    }
    return 0;
}
