#include "exp/eval.hh"

#include <algorithm>
#include <charconv>
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
    core::RmbConfig cfg = pt.rmb;
    cfg.numNodes = pt.nodes;
    cfg.numBuses = pt.buses;
    cfg.seed = net_seed;
    cfg.verify = verify;
    cfg.engine = pt.engine == "kernel" ? core::EngineKind::Kernel
                                       : core::EngineKind::Event;
    cfg.topology = pt.topology == "hier" ? core::TopologyKind::Hier
                                         : core::TopologyKind::Flat;
    cfg.headerPolicy = pt.header == "straight"
                           ? core::HeaderPolicy::PreferStraight
                           : core::HeaderPolicy::PreferLowest;
    cfg.blocking = pt.blocking == "nack"
                       ? core::BlockingPolicy::NackRetry
                       : core::BlockingPolicy::Wait;
    if (pt.blocking.rfind("wait:", 0) == 0)
        cfg.headerTimeout = std::stoull(pt.blocking.substr(5));
    cfg.transientFaults = cfg.faultMtbf > 0;
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

namespace {

/** Batch pairs for permutation-style workloads over @p n nodes;
 *  empty if the workload is open loop.  Sets @p error for shape
 *  problems (e.g. bitrev on a non-power-of-two). */
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

} // namespace

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

std::unique_ptr<obs::TimelineSampler>
startTimeline(net::Network &network, sim::Tick period,
              sim::Tick min_end, bool shard_series)
{
    if (period == 0)
        return nullptr;
    sim::Simulator &simulator = network.simulator();
    auto timeline =
        std::make_unique<obs::TimelineSampler>(simulator, period);
    // Counter-backed series emit per-window deltas (divide by
    // `period` for a per-tick rate) so saturation onset is visible
    // instead of being averaged into a running total.
    const auto traffic = [&timeline](const std::string &prefix,
                                     const net::Network &net) {
        timeline->addCounterSeries(prefix + "injected", [&net] {
            return net.stats().injected.value();
        });
        timeline->addCounterSeries(prefix + "delivered", [&net] {
            return net.stats().delivered.value();
        });
    };
    traffic("", network);
    timeline->addSeries("active_circuits", [&network] {
        return static_cast<double>(network.stats().activeCircuits.current());
    });
    if (const auto *rmb = dynamic_cast<const core::Engine *>(&network)) {
        const double segs = static_cast<double>(rmb->config().numNodes) *
                            rmb->config().numBuses;
        timeline->addSeries("live_buses", [rmb] {
            return static_cast<double>(rmb->rmbStats().liveBuses.current());
        });
        timeline->addSeries("segment_occupancy", [rmb, segs] {
            return static_cast<double>(rmb->occupiedSegments()) / segs;
        });
        timeline->addCounterSeries("dead_letters", [rmb] {
            return rmb->rmbStats().deadLettered.value();
        });
    }
    const auto *graph = dynamic_cast<const core::RingGraph *>(&network);
    if (graph != nullptr && graph->faultDomainBridges() > 0) {
        timeline->addCounterSeries("bridge_deflections", [graph] {
            return graph->bridgeDeflections();
        });
        // Per-ring attribution scales with the ring count, so it is
        // opt-in.  Shard clocks are barrier-synced to parent event
        // times, which keeps every series byte-identical for any
        // --jobs.  Shards 0..M-1 are the local rings, shard M the
        // global ring.
        for (std::uint32_t s = 0; shard_series && s < graph->numRings(); ++s)
            traffic("shard" + std::to_string(s) + '.',
                    graph->ringEngine(s));
    }
    timeline->setStopWhen([&network, &simulator, min_end] {
        return simulator.now() >= min_end && network.quiescent();
    });
    timeline->start();
    return timeline;
}

WorkloadRun
runWorkload(const PointConfig &pt, net::Network &network,
            sim::Random &rng, sim::Tick warmup, sim::Tick drain,
            sim::Tick timeline_period, bool shard_series)
{
    WorkloadRun run;
    run.pairs = batchPairs(pt, network.numNodes(), rng, run.error);
    std::unique_ptr<workload::TrafficPattern> pattern;
    if (run.pairs.empty() && run.error.empty())
        pattern = stochasticPattern(pt, network.numNodes(), run.error);
    if (!run.error.empty())
        return run;
    // A batch is in flight from the first tick; an open loop
    // generates for pt.duration.
    run.timeline = startTimeline(network, timeline_period,
                                 pattern ? pt.duration : 0, shard_series);
    if (pattern)
        run.openLoop =
            workload::runOpenLoop(network, *pattern, pt.rate, pt.payload,
                                  pt.duration, rng, warmup, drain);
    else
        run.batch = workload::runBatch(network, run.pairs, pt.payload,
                                       pt.timeout);
    return run;
}

namespace {

/** Append metric @p name = @p v to @p r. */
template <class T>
void
put(PointResult &r, const char *name, T v)
{
    r.metrics.emplace_back(name, num(v));
}

void
appendNetworkMetrics(PointResult &r, const net::Network &network)
{
    const auto &s = network.stats();
    put(r, "injected", s.injected.value());
    put(r, "delivered", s.delivered.value());
    put(r, "failed", s.failed.value());
    put(r, "nacks", s.nacks.value());
    put(r, "retries", s.retries.value());
    put(r, "mean_hops", s.pathLength.mean());
    put(r, "peak_circuits",
        static_cast<std::uint64_t>(s.activeCircuits.maximum()));
    const auto *rmb = dynamic_cast<const core::Engine *>(&network);
    if (rmb == nullptr)
        return;
    const core::RmbStats &rs = rmb->rmbStats();
    put(r, "compaction_moves", rs.compactionMoves.value());
    put(r, "max_cycle_skew", rs.maxCycleSkew.value());
    if (rs.faultsInjected.value() > 0 || rs.watchdogFires.value() > 0) {
        put(r, "faults_injected", rs.faultsInjected.value());
        put(r, "faults_repaired", rs.faultsRepaired.value());
        put(r, "buses_severed", rs.busesSevered.value());
        put(r, "messages_recovered", rs.messagesRecovered.value());
        put(r, "messages_lost", rs.messagesLost.value());
        put(r, "watchdog_fires", rs.watchdogFires.value());
        put(r, "mean_recovery_latency", rs.recoveryLatency.mean());
    }
    // Graceful-degradation census: only for runs that actually
    // degraded, so fault-free sweeps stay byte-identical to their
    // baselines.  The emitted key set is a pure function of the
    // deterministic run outcome.
    if (rs.faultsPermanent.value() > 0 || rs.deadLettered.value() > 0) {
        put(r, "faults_permanent", rs.faultsPermanent.value());
        put(r, "node_faults", rs.nodeFaults.value());
        put(r, "bridge_faults", rs.bridgeFaults.value());
        put(r, "dead_lettered", rs.deadLettered.value());
        put(r, "dead_retries_exhausted", rs.deadRetriesExhausted.value());
        put(r, "dead_unreachable", rs.deadUnreachable.value());
        put(r, "dead_stalled", rs.deadStalled.value());
        put(r, "dead_bridge_dead", rs.deadBridgeDead.value());
        put(r, "effective_buses", rmb->effectiveBuses());
        put(r, "residual_bandwidth", rmb->residualBandwidth());
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

        // The timeline rides this point's own event queue, so its
        // series are deterministic too.
        const WorkloadRun run =
            runWorkload(pt, *network, wl_rng, pt.duration / 5,
                        pt.timeout, pt.timelinePeriod, false);
        if (!run.error.empty())
            return failPoint(pt, run.error);

        PointResult r;
        r.index = pt.index;
        put(r, "ticks", static_cast<std::uint64_t>(simulator.now()));
        r.ok = true;
        if (!run.pairs.empty()) {
            const workload::BatchResult &b = run.batch;
            r.metrics.emplace_back("completed",
                                   b.completed ? "true" : "false");
            put(r, "makespan", static_cast<std::uint64_t>(b.makespan));
            put(r, "mean_latency", b.meanLatency);
            put(r, "max_latency", b.maxLatency);
            put(r, "mean_setup", b.meanSetupLatency);
            // A timed-out batch is a captured failure, not a crash:
            // the metrics still describe how far it got.
            r.ok = b.completed;
            if (!b.completed)
                r.error = "batch incomplete after " +
                          std::to_string(pt.timeout) +
                          " simulated ticks (timeout)";
        } else {
            const workload::OpenLoopResult &o = run.openLoop;
            put(r, "offered_load", o.offeredLoad);
            put(r, "throughput", o.throughput);
            put(r, "mean_latency", o.meanLatency);
            put(r, "p95_latency", o.p95Latency);
            put(r, "max_latency", o.maxLatency);
            put(r, "mean_setup", o.meanSetupLatency);
        }
        appendNetworkMetrics(r, *network);
        appendTraceMetrics(r, trace_counts);
        if (run.timeline)
            r.timelineJson = run.timeline->toJson();
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

namespace {

/** One numeric metric over a grid point's completed runs. */
struct Fold
{
    std::string name;
    double sum, min, max;
    std::size_t n;
};

/** Per grid point (replicas() runs each, or 1): its completed runs,
 *  and each numeric metric folded over them in emission order. */
using Folded = std::pair<std::size_t, std::vector<Fold>>;

std::vector<Folded>
foldRuns(const SweepSpec &spec, const SweepOutcome &outcome)
{
    const std::size_t stride = std::max<std::uint32_t>(spec.replicas(), 1);
    std::vector<Folded> grid(outcome.results.size() / stride);
    for (std::size_t j = 0; j < outcome.results.size(); ++j) {
        auto &[completed, folds] = grid[j / stride];
        completed += outcome.results[j].ok;
        for (const auto &[name, text] : outcome.results[j].metrics) {
            double v = 0.0;
            const char *end = text.data() + text.size();
            const auto [stop, ec] = std::from_chars(text.data(), end, v);
            if (!outcome.results[j].ok || ec != std::errc() || stop != end)
                continue; // failed runs, booleans and nulls
            auto it = std::find_if(folds.begin(), folds.end(),
                                   [&](auto &f) { return f.name == name; });
            if (it == folds.end())
                it = folds.insert(it, Fold{name, 0.0, v, v, 0});
            *it = {name, it->sum + v, std::min(it->min, v),
                   std::max(it->max, v), it->n + 1};
        }
    }
    return grid;
}

} // namespace

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
    if (!spec.tables().empty()) {
        for (const TextTable &t : tables(spec, outcome))
            docs.push_back(obs::tableJson(t));
        report.setRaw("tables", obs::jsonArray(docs));
        docs.clear();
    }

    const std::uint32_t replicas = spec.replicas();
    const std::vector<Folded> folded =
        replicas > 0 ? foldRuns(spec, outcome) : std::vector<Folded>();
    const std::size_t stride = std::max<std::uint32_t>(replicas, 1);
    for (std::size_t i = 0; i < outcome.points.size(); i += stride) {
        const PointConfig &pt = outcome.points[i];
        const PointResult &r = outcome.results[i];
        obs::JsonWriter json;
        json.beginObject();
        json.field("index", static_cast<std::uint64_t>(pt.index));
        json.field("label", pt.label);
        if (replicas == 0)
            json.field("seed", pt.seed);
        json.beginObject("params");
        for (const auto &[field, value] : pt.params)
            json.raw(field, value);
        json.endObject();
        if (replicas == 0) {
            json.field("ok", r.ok);
            json.field("error", r.error);
            json.beginObject("metrics");
            for (const auto &[name, value] : r.metrics)
                json.raw(name, value);
            json.endObject();
        } else {
            // The replicas: the first failure's reason, and each
            // metric's mean, min and max over the completed runs.
            const auto &[completed, folds] = folded[i / stride];
            std::string error;
            for (std::size_t j = i; j < i + stride && error.empty(); ++j)
                if (!outcome.results[j].ok)
                    error = "replica " + std::to_string(j - i) + ": " +
                            outcome.results[j].error;
            json.field("ok", completed == replicas);
            json.field("error", error);
            json.field("completed", std::uint64_t{completed});
            json.beginObject("metrics");
            for (const Fold &f : folds) {
                json.beginObject(f.name);
                json.field("mean", f.sum / static_cast<double>(f.n));
                json.field("min", f.min);
                json.field("max", f.max);
                json.endObject();
            }
            json.endObject();
        }
        // Absent unless the spec set timeline_period, so existing
        // baselines keep their exact bytes; with replicas it is
        // replica 0's.
        if (!r.timelineJson.empty())
            json.raw("timeline", r.timelineJson);
        json.endObject();
        docs.push_back(json.str());
    }
    report.setRaw("points", obs::jsonArray(docs));
    return report;
}

std::vector<TextTable>
tables(const SweepSpec &spec, const SweepOutcome &outcome)
{
    const std::vector<Folded> folded = foldRuns(spec, outcome);
    // Metric @p name of grid point @p g: its mean, or the completed
    // count; false when no completed run reports it.
    const auto value = [&](std::size_t g, const std::string &name,
                           double &out) {
        if (g == std::string::npos)
            return false;
        out = static_cast<double>(folded[g].first);
        bool known = name == "completed";
        for (const Fold &f : folded[g].second) {
            if (f.name == name) {
                out = f.sum / static_cast<double>(f.n);
                known = true;
            }
        }
        return known;
    };
    std::vector<TextTable> out;
    for (const TableSpec &t : spec.tables()) {
        std::vector<std::string> headers;
        for (const Column &col : t.columns)
            headers.push_back(col.header);
        std::string error; // fromJson refused every ambiguous table
        for (const TableLayout &lay : spec.layout(t, outcome.points, error)) {
            TextTable &table = out.emplace_back(lay.caption, headers);
            for (std::size_t row = 0; row < lay.text.size(); ++row) {
                std::vector<std::string> cells = lay.text[row];
                for (std::size_t c = 0; c < t.columns.size(); ++c) {
                    const std::vector<MetricRef> &refs = t.columns[c].refs;
                    double v[2] = {0.0, 1.0};
                    bool known = !refs.empty();
                    for (std::size_t k = 0; k < refs.size(); ++k)
                        known = known && value(lay.cells[row][c][k],
                                               refs[k].metric, v[k]);
                    if (!refs.empty())
                        cells[c] = known && v[1] != 0.0
                                       ? TextTable::num(v[0] / v[1],
                                                        t.columns[c].digits)
                                       : "-";
                }
                table.addRow(std::move(cells));
            }
        }
    }
    return out;
}

} // namespace exp
} // namespace rmb
