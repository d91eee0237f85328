#include "exp/eval.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "baselines/fattree.hh"
#include "baselines/hypercube.hh"
#include "baselines/mesh.hh"
#include "baselines/multibus.hh"
#include "baselines/wormhole_ring.hh"
#include "common/bitutils.hh"
#include "obs/json.hh"
#include "obs/prof.hh"
#include "obs/sinks.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"
#include "rmb/engine.hh"
#include "rmb/network.hh"
#include "rmb/ring_graph.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"
#include "workload/traffic.hh"

namespace rmb {
namespace exp {

namespace {

std::string
num(double v)
{
    if (std::isnan(v) || std::isinf(v))
        return "null";
    std::ostringstream out;
    out << v;
    return out.str();
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

/** A failed PointResult with one actionable message. */
PointResult
failPoint(const PointConfig &pt, std::string why)
{
    PointResult r;
    r.index = pt.index;
    r.ok = false;
    r.error = std::move(why);
    return r;
}

} // namespace

core::RmbConfig
rmbConfig(const PointConfig &pt, std::uint64_t net_seed,
          core::VerifyLevel verify)
{
    core::RmbConfig cfg;
    cfg.numNodes = pt.nodes;
    cfg.numBuses = pt.buses;
    cfg.seed = net_seed;
    cfg.engine = pt.engine == "kernel" ? core::EngineKind::Kernel
                                       : core::EngineKind::Event;
    cfg.enableCompaction = pt.compaction;
    cfg.sendPorts = pt.sendPorts;
    cfg.receivePorts = pt.receivePorts;
    cfg.detailedFlits = pt.detailedFlits;
    if (pt.faultMtbf > 0) {
        cfg.transientFaults = true;
        cfg.faultMtbf = pt.faultMtbf;
        cfg.faultMttrMin = pt.faultMttrMin;
        cfg.faultMttrMax = pt.faultMttrMax;
        cfg.faultPermanentProb = pt.faultPermanentProb;
        cfg.faultNodeProb = pt.faultNodeProb;
        cfg.faultBridgeProb = pt.faultBridgeProb;
    }
    cfg.watchdogTimeout = pt.watchdog;
    cfg.maxRetries = pt.maxRetries;
    // Copied for every topology so validate() refuses global_buses
    // under topology=flat instead of it being silently ignored.
    cfg.globalBuses = pt.globalBuses;
    if (pt.topology == "hier") {
        cfg.topology = core::TopologyKind::Hier;
        cfg.localRings = pt.localRings;
        cfg.bridgeLatency = pt.bridgeLatency;
        cfg.bridgeBuffer = pt.bridgeBuffer;
        cfg.shardJobs = pt.shardJobs;
    }
    cfg.verify = verify;
    cfg.headerPolicy = pt.header == "straight"
                           ? core::HeaderPolicy::PreferStraight
                           : core::HeaderPolicy::PreferLowest;
    if (pt.blocking == "wait") {
        cfg.blocking = core::BlockingPolicy::Wait;
    } else if (pt.blocking.rfind("wait:", 0) == 0) {
        cfg.blocking = core::BlockingPolicy::Wait;
        cfg.headerTimeout = std::stoull(pt.blocking.substr(5));
    } else {
        cfg.blocking = core::BlockingPolicy::NackRetry;
    }
    return cfg;
}

std::unique_ptr<net::Network>
makeNetwork(const PointConfig &pt, const core::RmbConfig &rmb_cfg,
            sim::Simulator &simulator, std::string &error)
{
    // Grid extents, already checked by the field table (each >= 2).
    std::vector<std::uint32_t> dims;
    std::uint64_t nodes = pt.nodes;
    if (pt.network == "grid") {
        nodes = 1;
        for (std::size_t pos = 0; pos <= pt.dims.size();) {
            const auto x = std::min(pt.dims.find('x', pos),
                                    pt.dims.size());
            dims.push_back(static_cast<std::uint32_t>(
                std::stoul(pt.dims.substr(pos, x - pos))));
            if (nodes <= UINT32_MAX) // never overflows 64 bits
                nodes *= dims.back();
            pos = x + 1;
        }
    } else if (pt.network == "torus" || pt.network == "mesh") {
        nodes = std::uint64_t{pt.width} * pt.height;
    }
    if (nodes < 2 || nodes > UINT32_MAX) {
        error = "network needs 2 to 2^32-1 nodes, got " +
                (nodes < 2 ? std::to_string(nodes) : "more");
        return nullptr;
    }

    // The hierarchy exists only behind core::makeEngine and the
    // kernel engine only on RMB rings; every other network would
    // silently ignore them.
    const bool rings = pt.network == "rmb" || pt.network == "dualring" ||
                       pt.network == "torus" || pt.network == "grid";
    if ((pt.network != "rmb" && pt.topology != "flat") ||
        (!rings && pt.engine != "event")) {
        error = (pt.topology != "flat"
                     ? "topology=" + pt.topology +
                           " is only supported with network=rmb"
                     : "engine=" + pt.engine +
                           " is only supported with network=rmb,"
                           " dualring, torus or grid") +
                "; '" + pt.network +
                "' would silently ignore it (drop it, or use"
                " network=rmb)";
        return nullptr;
    }

    if (rings) {
        core::RmbConfig cfg = rmb_cfg;
        cfg.numNodes = static_cast<std::uint32_t>(nodes);
        const auto problems = cfg.validate();
        if (!problems.empty()) {
            error = problems.front();
            for (std::size_t i = 1; i < problems.size(); ++i)
                error += "; " + problems[i];
            return nullptr;
        }
        if (pt.network == "rmb")
            return core::makeEngine(simulator, cfg);
        if (pt.network == "dualring")
            return core::makeDualRing(simulator, cfg);
        if (pt.network == "grid")
            return core::makeGrid(simulator, dims, cfg);
        return core::makeTorus(simulator, pt.width, pt.height, cfg);
    }

    const auto n = static_cast<std::uint32_t>(nodes);
    baseline::CircuitConfig circuit;
    circuit.seed = rmb_cfg.seed;
    if (pt.network == "ring")
        return std::make_unique<baseline::IdealRingNetwork>(
            simulator, n, pt.buses, circuit);
    if (pt.network == "mesh")
        return std::make_unique<baseline::MeshNetwork>(
            simulator, pt.width, pt.height, circuit);
    if (pt.network == "hypercube" || pt.network == "ehc") {
        if (!isPowerOfTwo(n)) {
            error = "network '" + pt.network +
                    "' needs nodes = 2^n, got " + std::to_string(n);
            return nullptr;
        }
        return std::make_unique<baseline::HypercubeNetwork>(
            simulator, log2Floor(n), circuit, pt.network == "ehc");
    }
    if (pt.network == "fattree")
        return std::make_unique<baseline::FatTreeNetwork>(
            simulator, n, pt.buses, circuit);
    if (pt.network == "multibus")
        return std::make_unique<baseline::MultiBusNetwork>(
            simulator, n, pt.buses, circuit);
    if (pt.network == "wormhole") {
        baseline::WormholeConfig cfg;
        cfg.vcsPerClass = pt.buses / 2 ? pt.buses / 2 : 1;
        return std::make_unique<baseline::WormholeRingNetwork>(
            simulator, n, cfg);
    }
    error = "unknown network '" + pt.network + "'";
    return nullptr;
}

workload::PairList
batchPairs(const PointConfig &pt, net::NodeId n, sim::Random &rng,
           std::string &error)
{
    const std::string &w = pt.workload;
    const bool pow2 = isPowerOfTwo(n);
    if ((w == "bitrev" || w == "shuffle" || w == "transpose") &&
        !pow2) {
        error = "workload '" + w + "' needs nodes = 2^n, got " +
                std::to_string(n);
        return {};
    }
    if (w == "transpose" && pow2 && log2Floor(n) % 2 != 0) {
        error = "workload 'transpose' needs an even number of"
                " address bits, got nodes = " +
                std::to_string(n);
        return {};
    }
    if (w == "randperm")
        return workload::toPairs(
            workload::randomFullTraffic(n, rng));
    if (w == "bitrev")
        return workload::toPairs(workload::bitReversal(n));
    if (w == "shuffle")
        return workload::toPairs(workload::perfectShuffle(n));
    if (w == "transpose")
        return workload::toPairs(workload::transpose(n));
    if (w == "tornado")
        return workload::toPairs(workload::rotation(n, n / 2));
    if (w.rfind("rot:", 0) == 0)
        return workload::toPairs(workload::rotation(
            n, static_cast<net::NodeId>(
                   std::stoull(w.substr(4)) % n)));
    if (w.rfind("hrel:", 0) == 0)
        return workload::randomHRelation(
            n, static_cast<std::uint32_t>(std::stoul(w.substr(5))),
            rng);
    return {};
}

std::unique_ptr<workload::TrafficPattern>
stochasticPattern(const PointConfig &pt, net::NodeId n,
                  std::string &error)
{
    const std::string &w = pt.workload;
    if (w == "uniform")
        return std::make_unique<workload::UniformTraffic>(n);
    if (w.rfind("local:", 0) == 0) {
        const std::uint64_t d = std::stoull(w.substr(6));
        if (d >= 1 && d < n)
            return std::make_unique<workload::LocalRingTraffic>(
                n, static_cast<net::NodeId>(d));
        error = "workload '" + w + "' needs a distance in [1, " +
                std::to_string(n) + ")";
        return nullptr;
    }
    if (w.rfind("hotspot:", 0) == 0)
        return std::make_unique<workload::HotSpotTraffic>(
            n, 0, std::stod(w.substr(8)));
    error = "workload '" + w + "' generated no traffic";
    return nullptr;
}

namespace {

void
appendNetworkMetrics(PointResult &r, const net::Network &network)
{
    const auto &s = network.stats();
    r.metrics.emplace_back("injected", num(s.injected.value()));
    r.metrics.emplace_back("delivered", num(s.delivered.value()));
    r.metrics.emplace_back("failed", num(s.failed.value()));
    r.metrics.emplace_back("nacks", num(s.nacks.value()));
    r.metrics.emplace_back("retries", num(s.retries.value()));
    r.metrics.emplace_back("mean_hops", num(s.pathLength.mean()));
    r.metrics.emplace_back(
        "peak_circuits",
        num(static_cast<std::uint64_t>(s.activeCircuits.maximum())));
    if (const auto *rmb =
            dynamic_cast<const core::Engine *>(&network)) {
        r.metrics.emplace_back(
            "compaction_moves",
            num(rmb->rmbStats().compactionMoves.value()));
        r.metrics.emplace_back(
            "max_cycle_skew",
            num(rmb->rmbStats().maxCycleSkew.value()));
        const core::RmbStats &rs = rmb->rmbStats();
        if (rs.faultsInjected.value() > 0 ||
            rs.watchdogFires.value() > 0) {
            r.metrics.emplace_back("faults_injected",
                                   num(rs.faultsInjected.value()));
            r.metrics.emplace_back("faults_repaired",
                                   num(rs.faultsRepaired.value()));
            r.metrics.emplace_back("buses_severed",
                                   num(rs.busesSevered.value()));
            r.metrics.emplace_back(
                "messages_recovered",
                num(rs.messagesRecovered.value()));
            r.metrics.emplace_back("messages_lost",
                                   num(rs.messagesLost.value()));
            r.metrics.emplace_back("watchdog_fires",
                                   num(rs.watchdogFires.value()));
            r.metrics.emplace_back(
                "mean_recovery_latency",
                num(rs.recoveryLatency.mean()));
        }
        // Graceful-degradation census: only for runs that actually
        // degraded, so fault-free sweeps stay byte-identical to
        // their baselines.  The emitted key set is a pure function
        // of the deterministic run outcome.
        if (rs.faultsPermanent.value() > 0 ||
            rs.deadLettered.value() > 0) {
            r.metrics.emplace_back("faults_permanent",
                                   num(rs.faultsPermanent.value()));
            r.metrics.emplace_back("node_faults",
                                   num(rs.nodeFaults.value()));
            r.metrics.emplace_back("bridge_faults",
                                   num(rs.bridgeFaults.value()));
            r.metrics.emplace_back("dead_lettered",
                                   num(rs.deadLettered.value()));
            r.metrics.emplace_back(
                "dead_retries_exhausted",
                num(rs.deadRetriesExhausted.value()));
            r.metrics.emplace_back("dead_unreachable",
                                   num(rs.deadUnreachable.value()));
            r.metrics.emplace_back("dead_stalled",
                                   num(rs.deadStalled.value()));
            r.metrics.emplace_back("dead_bridge_dead",
                                   num(rs.deadBridgeDead.value()));
            r.metrics.emplace_back("effective_buses",
                                   num(rmb->effectiveBuses()));
            r.metrics.emplace_back(
                "residual_bandwidth",
                num(rmb->residualBandwidth()));
        }
    }
}

/**
 * Per-kind protocol event counters as `trace.events.<kind>` metrics,
 * in EventKind order.  Zero counts are skipped so points on networks
 * that never emit a kind (baselines, no-fault runs) stay compact;
 * the set of emitted keys is a pure function of the point config and
 * seed, so sweep output stays byte-deterministic for any --jobs.
 */
void
appendTraceMetrics(PointResult &r, const obs::CountingSink &counts)
{
    for (std::size_t k = 0; k < obs::kNumEventKinds; ++k) {
        const auto kind = static_cast<obs::EventKind>(k);
        if (counts.count(kind) == 0)
            continue;
        r.metrics.emplace_back(
            "trace.events." + std::string(obs::eventKindName(kind)),
            num(counts.count(kind)));
    }
}

} // namespace

PointResult
runPoint(const PointConfig &pt)
{
    RMB_PROF_SCOPE("exp.point");
    try {
        if (pt.payload == 0)
            return failPoint(pt, "payload must be >= 1 flit");

        // Independent substreams per concern, all pure functions of
        // the point seed: one for the network's internal randomness
        // (clock jitter, backoff), one for workload generation.
        const sim::Random point_root(pt.seed);
        const std::uint64_t net_seed = point_root.split(0).next();
        sim::Random wl_rng = point_root.split(1);

        sim::Simulator simulator;
        std::string error;
        // Declared before the network so the sink outlives it.
        obs::CountingSink trace_counts;
        auto network = makeNetwork(
            pt, rmbConfig(pt, net_seed, core::VerifyLevel::Off),
            simulator, error);
        if (!network)
            return failPoint(pt, error);
        network->setTraceSink(&trace_counts);

        PointResult r;
        r.index = pt.index;

        const auto pairs =
            batchPairs(pt, network->numNodes(), wl_rng, error);
        if (!error.empty())
            return failPoint(pt, error);

        // Optional per-point timeline (spec field timeline_period).
        // Samples ride this point's own event queue and only read
        // counters, so the series is deterministic; counter series
        // emit per-window deltas (rates), not running totals.
        std::unique_ptr<obs::TimelineSampler> timeline;
        if (pt.timelinePeriod > 0) {
            timeline = std::make_unique<obs::TimelineSampler>(
                simulator, pt.timelinePeriod);
            const net::Network *netp = network.get();
            timeline->addCounterSeries("injected", [netp] {
                return netp->stats().injected.value();
            });
            timeline->addCounterSeries("delivered", [netp] {
                return netp->stats().delivered.value();
            });
            if (pairs.empty()) {
                // Stochastic: generation runs for `duration`.
                const sim::Tick end = pt.duration;
                timeline->setStopWhen([netp, &simulator, end] {
                    return simulator.now() >= end &&
                           netp->quiescent();
                });
            } else {
                // Batch: everything is in flight from tick 0.
                timeline->setStopWhen(
                    [netp] { return netp->quiescent(); });
            }
            timeline->start();
        }

        if (!pairs.empty()) {
            const auto b = workload::runBatch(*network, pairs,
                                              pt.payload, pt.timeout);
            r.metrics.emplace_back(
                "ticks",
                num(static_cast<std::uint64_t>(simulator.now())));
            r.metrics.emplace_back("completed",
                                   b.completed ? "true" : "false");
            r.metrics.emplace_back(
                "makespan",
                num(static_cast<std::uint64_t>(b.makespan)));
            r.metrics.emplace_back("mean_latency",
                                   num(b.meanLatency));
            r.metrics.emplace_back("max_latency", num(b.maxLatency));
            r.metrics.emplace_back("mean_setup",
                                   num(b.meanSetupLatency));
            appendNetworkMetrics(r, *network);
            appendTraceMetrics(r, trace_counts);
            if (timeline)
                r.timelineJson = timeline->toJson();
            // A timed-out batch is a captured failure, not a crash:
            // the metrics above still describe how far it got.
            r.ok = b.completed;
            if (!b.completed)
                r.error = "batch incomplete after " +
                          std::to_string(pt.timeout) +
                          " simulated ticks (timeout)";
            return r;
        }

        auto pattern =
            stochasticPattern(pt, network->numNodes(), error);
        if (!pattern)
            return failPoint(pt, error);
        const auto o = workload::runOpenLoop(
            *network, *pattern, pt.rate, pt.payload, pt.duration,
            wl_rng, pt.duration / 5, pt.timeout);
        r.metrics.emplace_back(
            "ticks", num(static_cast<std::uint64_t>(simulator.now())));
        r.metrics.emplace_back("offered_load", num(o.offeredLoad));
        r.metrics.emplace_back("throughput", num(o.throughput));
        r.metrics.emplace_back("mean_latency", num(o.meanLatency));
        r.metrics.emplace_back("p95_latency", num(o.p95Latency));
        r.metrics.emplace_back("max_latency", num(o.maxLatency));
        r.metrics.emplace_back("mean_setup",
                               num(o.meanSetupLatency));
        appendNetworkMetrics(r, *network);
        appendTraceMetrics(r, trace_counts);
        if (timeline)
            r.timelineJson = timeline->toJson();
        r.ok = true;
        return r;
    } catch (const std::exception &e) {
        return failPoint(pt, std::string("exception: ") + e.what());
    }
}

SweepOutcome
runSweep(const SweepSpec &spec, unsigned jobs,
         const ProgressFn &progress)
{
    SweepOutcome outcome;
    outcome.points = spec.points();
    outcome.results.resize(outcome.points.size());

    std::mutex progress_mutex;
    std::size_t completed = 0;

    common::Runner runner(jobs);
    runner.forEach(outcome.points.size(), [&](std::size_t i) {
        const auto start = std::chrono::steady_clock::now();
        outcome.results[i] = runPoint(outcome.points[i]);
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            Progress p;
            p.completed = ++completed;
            p.total = outcome.points.size();
            p.index = i;
            p.ok = outcome.results[i].ok;
            p.label = outcome.points[i].label;
            p.wallMillis = wall_ms;
            progress(p);
        }
    });

    for (const PointResult &r : outcome.results)
        if (!r.ok)
            ++outcome.failures;
    return outcome;
}

obs::RunReport
aggregate(const SweepSpec &spec, const SweepOutcome &outcome)
{
    RMB_PROF_SCOPE("exp.aggregate");
    obs::RunReport report("sweep");
    report.set("sweep", spec.name());
    report.set("seed", spec.masterSeed());
    report.set("points_total",
               static_cast<std::uint64_t>(outcome.points.size()));
    report.set("points_failed",
               static_cast<std::uint64_t>(outcome.failures));
    report.setRaw("spec", spec.canonicalJson());

    std::vector<std::string> docs;
    docs.reserve(outcome.points.size());
    for (std::size_t i = 0; i < outcome.points.size(); ++i) {
        const PointConfig &pt = outcome.points[i];
        const PointResult &r = outcome.results[i];
        obs::JsonWriter json;
        json.beginObject();
        json.field("index", static_cast<std::uint64_t>(pt.index));
        json.field("label", pt.label);
        json.field("seed", pt.seed);
        json.beginObject("params");
        for (const auto &[field, value] : pt.params)
            json.raw(field, value);
        json.endObject();
        json.field("ok", r.ok);
        json.field("error", r.error);
        json.beginObject("metrics");
        for (const auto &[name, value] : r.metrics)
            json.raw(name, value);
        json.endObject();
        // Absent unless the spec set timeline_period, so existing
        // baselines keep their exact bytes.
        if (!r.timelineJson.empty())
            json.raw("timeline", r.timelineJson);
        json.endObject();
        docs.push_back(json.str());
    }
    report.setRaw("points", obs::jsonArray(docs));
    return report;
}

} // namespace exp
} // namespace rmb
