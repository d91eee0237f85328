/**
 * @file
 * Experiment E21: hierarchical multi-ring scaling curves and the
 * hier-vs-flat-vs-mesh comparison (docs/HIERARCHY.md).
 *
 * Three sections, all in one JSON report:
 *
 *  - "scaling": one large hier run (kernel-engine local rings) per
 *    node count - up to 131072 nodes in 1024 rings - executed with
 *    shardJobs 1, 2 and 4.  Per size the report carries wall
 *    seconds and throughput per job count, the delivered count, an
 *    FNV-1a hash of the outcome digest, and a "deterministic" flag
 *    (1 iff all three job counts produced the same digest).
 *  - "speedup": the parallel executor's self-speedup at 4 threads
 *    on the largest size, with a hard floor (--min-speedup,
 *    default 1.5x).  The floor is enforced only where the process
 *    may run on >= 4 CPUs (its affinity mask, "threads_available";
 *    "enforced" says which); elsewhere the floor leaf reports 1 so
 *    the *determinism* leaves still gate everywhere.
 *  - "comparison": the same mostly-local workload through a
 *    1024-node hierarchical RMB, the flat 1024-node ring, and a
 *    32x32 circuit-switched mesh.
 *
 * tests/data/BENCH_hierarchy.json pins the machine-independent
 * leaves (delivered counts, digest hashes, determinism and floor
 * indicators) with zero tolerance for the --fast grid; the
 * hier_gate ctest runs scripts/check_bench.sh against it.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "baselines/mesh.hh"
#include "common/flags.hh"
#include "obs/json.hh"
#include "rmb/engine.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace {

using namespace rmb;

struct Send
{
    sim::Tick at;
    net::NodeId src;
    net::NodeId dst;
};

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

/** FNV-1a over the outcome digest: a compact, platform-independent
 *  fingerprint of every message's final state and path length. */
std::string
digestFingerprint(const net::Network &network)
{
    const std::string digest = core::outcomeDigest(network);
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : digest) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
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
    for (const Send &s : sends) {
        simulator.scheduleAt(s.at, [&network, s, payload] {
            network.send(s.src, s.dst, payload);
        });
    }
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
    out.fingerprint = digestFingerprint(network);
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

int
runReport(const std::string &path, double min_speedup, bool fast)
{
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

    obs::JsonWriter w;
    w.beginObject();
    w.field("tool", std::string("bench_hierarchy"));
    w.field("experiment", std::string("E21"));
    w.field("fast", fast);

    // --- scaling: nodes x threads ---
    w.beginObject("scaling");
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
        for (std::size_t j = 0; j < job_counts.size(); ++j) {
            const std::string suffix =
                "_j" + std::to_string(job_counts[j]);
            w.field("seconds" + suffix, outs[j].seconds);
            w.field("msgs_per_sec" + suffix,
                    outs[j].seconds > 0.0
                        ? static_cast<double>(outs[j].delivered) /
                              outs[j].seconds
                        : 0.0);
        }
        w.field("digest_fnv", outs.front().fingerprint);
        w.field("deterministic", deterministic ? 1.0 : 0.0);
        w.endObject();
        std::cout << "scaling " << key << ": " << messages
                  << " msgs, j1 " << outs[0].seconds << "s, j2 "
                  << outs[1].seconds << "s, j4 " << outs[2].seconds
                  << "s, digest " << outs.front().fingerprint
                  << (deterministic ? "" : " NON-DETERMINISTIC")
                  << "\n";
    }
    w.endObject();

    // --- speedup: the 4-thread floor on the largest size ---
    const double speedup =
        largest_j4 > 0.0 ? largest_j1 / largest_j4 : 0.0;
    const bool floor_holds = !enforce || speedup >= min_speedup;
    w.beginObject("speedup");
    w.field("threads_available", std::uint64_t{cpus});
    w.field("enforced", enforce ? 1.0 : 0.0);
    w.field("required", min_speedup);
    w.field("self_speedup_4t", speedup);
    w.field("floor_holds", floor_holds ? 1.0 : 0.0);
    w.endObject();
    std::cout << "speedup: " << speedup << "x at 4 threads (floor "
              << min_speedup << "x "
              << (enforce ? (floor_holds ? "holds" : "VIOLATED")
                          : "not enforced: < 4 usable CPUs")
              << ")\n";

    // --- comparison: hier vs flat vs mesh, identical workload ---
    w.beginObject("comparison");
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
            w.beginObject(key);
            w.field("delivered", o.delivered);
            w.field("completed",
                    o.delivered == o.injected ? 1.0 : 0.0);
            w.field("seconds", o.seconds);
            w.field("mean_latency", o.meanLatency);
            w.endObject();
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
    w.endObject();
    w.endObject();

    if (!path.empty()) {
        std::ofstream out(path);
        if (!out) {
            std::cerr << "bench_hierarchy: cannot write " << path
                      << "\n";
            return 1;
        }
        out << w.str() << "\n";
    }

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

[[noreturn]] void
usage(int code)
{
    (code == 0 ? std::cout : std::cerr)
        << "usage: bench_hierarchy [--fast] [--report FILE]\n"
           "                       [--min-speedup X]\n"
           "Scaling curves (nodes x threads, up to 131072 nodes),\n"
           "the 4-thread self-speedup floor, and the\n"
           "hier-vs-flat-vs-mesh comparison.  --report writes the\n"
           "JSON the hier_gate ctest compares against\n"
           "tests/data/BENCH_hierarchy.json.\n";
    std::exit(code);
}

} // namespace

int
main(int argc, char **argv)
{
    bool fast = false;
    std::string report_path;
    double min_speedup = 1.5;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fast") {
            fast = true;
        } else if (arg == "--report" && i + 1 < argc) {
            report_path = argv[++i];
        } else if (arg == "--min-speedup" && i + 1 < argc) {
            min_speedup = common::flagDouble("bench_hierarchy", arg,
                                              argv[++i]);
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage(2);
        }
    }
    return runReport(report_path, min_speedup, fast);
}
