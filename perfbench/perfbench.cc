/**
 * @file
 * perfbench: fixed-work performance benchmark of the RMB simulator.
 *
 *     perfbench --workload NAME --seed N --seconds S --trace 0|1
 *               [--out DIR]
 *
 * Every workload is a fixed amount of simulated work generated from
 * the seed through the public workload API.  One *repetition* sets up
 * the network(s) and generates every input, runs the simulation, and
 * then checks the outcome outside the timed phase.  A run repeats the
 * same repetition a fixed number of times (derived from --seconds,
 * never from elapsed time) and reports medians, so host-time figures
 * are steady while every simulated figure must repeat exactly.
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 interleaves
 * untraced and traced repetitions and prints the per-layer split.
 * The last line of stdout is one JSON object; a failed correctness
 * check exits 1 with "correct": false and no metrics.
 * See perfbench/README.md for workloads, metrics and the span file.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/eval.hh"
#include "exp/spec.hh"
#include "netbase/network.hh"
#include "obs/prof.hh"
#include "obs/run_report.hh"
#include "rmb/config.hh"
#include "rmb/engine.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"
#include "workload/trace.hh"
#include "workload/traffic.hh"

namespace {

using namespace rmb;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** user + sys CPU seconds of the whole process so far. */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/**
 * Peak resident set of this process image in MiB: VmHWM, which starts
 * afresh at exec.  getrusage's ru_maxrss would also count the peak of
 * the launching process (it survives fork + exec), so it is only the
 * fallback where /proc is missing.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------
// Spans: the benchmark's own trace of its calls into each layer.
// ---------------------------------------------------------------

struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = top level
    double start = 0.0;       //!< seconds since process start
    double end = 0.0;
};

/**
 * In-memory span log.  Disabled (the default) it records nothing, so
 * untraced repetitions pay two branch checks per call site.  Spans
 * are opened and closed on the main thread; the sweep's point spans
 * arrive through add() from the serialised progress callback while
 * the main thread waits inside runSweep().
 */
class SpanLog
{
  public:
    void
    enable(bool on)
    {
        on_ = on;
    }

    std::uint64_t
    open(const std::string &name)
    {
        if (!on_)
            return 0;
        Span s;
        s.name = name;
        s.id = spans_.size() + 1;
        s.parent = stack_.empty() ? 0 : stack_.back();
        s.start = now();
        spans_.push_back(s);
        stack_.push_back(s.id);
        return s.id;
    }

    void
    close(std::uint64_t id)
    {
        if (id == 0)
            return;
        spans_[id - 1].end = now();
        stack_.pop_back();
    }

    /** Record a finished span under the innermost open one. */
    void
    add(const std::string &name, double start, double end)
    {
        if (!on_)
            return;
        Span s;
        s.name = name;
        s.id = spans_.size() + 1;
        s.parent = stack_.empty() ? 0 : stack_.back();
        s.start = start;
        s.end = end;
        spans_.push_back(s);
    }

    double now() const { return secondsBetween(t0_, Clock::now()); }

    std::size_t size() const { return spans_.size(); }

    /** Sum of durations of spans named @p name recorded from index
     *  @p from on. */
    double
    total(const std::string &name, std::size_t from) const
    {
        double t = 0.0;
        for (std::size_t i = from; i < spans_.size(); ++i)
            if (spans_[i].name == name)
                t += spans_[i].end - spans_[i].start;
        return t;
    }

    /** Self time of every span: duration minus the union of its
     *  children's intervals (point spans of two workers overlap). */
    std::vector<double>
    selfTimes() const
    {
        std::vector<std::vector<std::pair<double, double>>> kids(
            spans_.size());
        for (const Span &s : spans_)
            if (s.parent != 0)
                kids[s.parent - 1].emplace_back(s.start, s.end);
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto &iv = kids[i];
            std::sort(iv.begin(), iv.end());
            double covered = 0.0;
            double lo = 0.0;
            double hi = -1.0;
            for (const auto &[a, b] : iv) {
                if (a > hi) {
                    if (hi > lo)
                        covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = std::max(hi, b);
                }
            }
            if (hi > lo)
                covered += hi - lo;
            self[i] = std::max(
                0.0, spans_[i].end - spans_[i].start - covered);
        }
        return self;
    }

    /** Write every span plus a per-name self-time table. */
    void
    write(const std::string &path, const std::string &run_id) const
    {
        const std::vector<double> self = selfTimes();
        std::map<std::string, std::pair<std::uint64_t, double>> by_name;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto &e = by_name[spans_[i].name];
            e.first += 1;
            e.second += self[i];
        }
        std::ofstream os(path);
        os.precision(9);
        os << "{\"run_id\": \"" << run_id << "\",\n \"self_s\": {";
        bool first = true;
        for (const auto &[name, e] : by_name) {
            os << (first ? "" : ", ") << "\"" << name
               << "\": {\"spans\": " << e.first
               << ", \"self_s\": " << e.second << "}";
            first = false;
        }
        os << "},\n \"spans\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << "  {\"run_id\": \"" << run_id << "\", \"id\": "
               << s.id << ", \"parent\": " << s.parent
               << ", \"name\": \"" << s.name
               << "\", \"start_s\": " << s.start
               << ", \"end_s\": " << s.end
               << ", \"self_s\": " << self[i] << "}"
               << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        os << " ]}\n";
    }

  private:
    bool on_ = false;
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::uint64_t> stack_;
};

SpanLog spans;

/** RAII span around one call into a layer. */
class Scope
{
  public:
    explicit Scope(const char *name) : id_(spans.open(name)) {}
    ~Scope() { spans.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::uint64_t id_;
};

// ---------------------------------------------------------------
// One repetition's outcome.
// ---------------------------------------------------------------

struct Rep
{
    // Host time (varies run to run).
    double setupS = 0.0;
    double runS = 0.0;
    double cpuS = 0.0;
    std::map<std::string, double> hostLayer; //!< traced reps only

    // Simulated outcome (a pure function of the seed).
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t deadLettered = 0;
    std::uint64_t inFlight = 0;
    /** Simulated latency (ticks, due -> delivered) -> sample count;
     *  exact percentiles without keeping every sample. */
    std::map<std::uint64_t, std::uint64_t> latencies;
    std::uint64_t fingerprint = 0;
    std::map<std::string, double> simLayer; //!< the ≡ counts
    /** ≡ counts only a traced repetition can see (profiler calls). */
    std::map<std::string, double> tracedSim;

    std::vector<std::string> violations;

    void
    require(bool ok, const std::string &what)
    {
        if (!ok)
            violations.push_back(what);
    }
};

/** Switches obs::prof on for one run phase of a traced repetition
 *  and folds the merged phase tree into Rep::hostLayer. */
class ProfWindow
{
  public:
    explicit ProfWindow(bool on) : on_(on)
    {
        if (!on_)
            return;
        obs::prof::reset();
        obs::prof::setEnabled(true);
    }

    void
    finish(Rep &r, bool single_threaded)
    {
        if (!on_)
            return;
        obs::prof::setEnabled(false);
        const obs::prof::PhaseNode root = obs::prof::merged();
        std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
            by_name; // name -> (calls, inclusive ns)
        std::function<void(const obs::prof::PhaseNode &)> walk =
            [&](const obs::prof::PhaseNode &n) {
                for (const auto &c : n.children) {
                    auto &e = by_name[c.name];
                    e.first += c.calls;
                    e.second += c.inclusiveNs;
                    walk(c);
                }
            };
        walk(root);
        static const char *const kScopes[] = {
            "event.inject",       "event.advance",
            "event.compaction_make", "event.compaction_break",
            "kernel.wheel",       "kernel.make_pass",
            "kernel.compaction_break", "hier.window",
            "hier.shard_step",    "hier.drain_barrier",
            "hier.bridge_exchange", "exp.point",
        };
        for (const char *s : kScopes)
            r.hostLayer[std::string("prof.") + s + "_s"] =
                1e-9 * static_cast<double>(by_name[s].second);
        r.tracedSim["hier.windows"] =
            static_cast<double>(by_name["hier.window"].first);
        double top = 0.0;
        for (const auto &c : root.children)
            top += 1e-9 * static_cast<double>(c.inclusiveNs);
        // Only meaningful where every scope runs on the timed thread.
        r.hostLayer["sim.unscoped_s"] =
            single_threaded ? std::max(0.0, r.runS - top) : 0.0;
    }

  private:
    bool on_;
};

/** Fill the layer timings every traced repetition reports from its
 *  own spans (recorded since index @p first_span). */
void
spanLayers(Rep &r, std::size_t first_span)
{
    static const std::pair<const char *, const char *> kSpans[] = {
        {"workload.generate_s", "workload.generate"},
        {"rmb.construct_s", "rmb.construct"},
        {"exp.parse_s", "exp.parse"},
        {"exp.aggregate_s", "exp.aggregate"},
        {"obs.report_write_s", "obs.report_write"},
        {"check.audit_s", "check.audit"},
        {"check.digest_s", "check.digest"},
    };
    for (const auto &[metric, span] : kSpans)
        r.hostLayer[metric] = spans.total(span, first_span);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Mean of @p s, 0 when it has no samples (never NaN). */
double
meanOf(const sim::SampleStat &s)
{
    return s.count() ? s.mean() : 0.0;
}

/**
 * Correctness gate and simulated-outcome census for one engine,
 * run after the timed phase: invariant audit, the accounting
 * identity delivered + dead-lettered + in-flight == injected,
 * per-message latencies, the outcome fingerprint and the ≡ counts.
 */
void
checkEngine(core::Engine &engine, std::uint64_t expected_sends, Rep &r)
{
    {
        Scope s("check.audit");
        engine.auditInvariants(); // panics (aborts) on a violation
    }
    const net::NetworkStats &ns = engine.stats();
    const core::RmbStats &rs = engine.rmbStats();
    r.injected = ns.injected.value();
    r.delivered = ns.delivered.value();
    r.deadLettered = rs.deadLettered.value();

    std::uint64_t delivered = 0;
    std::uint64_t failed = 0;
    for (net::MessageId id = 1; id <= engine.numMessages(); ++id) {
        const net::Message &m = engine.message(id);
        if (m.state == net::MessageState::Delivered) {
            ++delivered;
            ++r.latencies[m.totalLatency()];
        } else if (m.state == net::MessageState::Failed) {
            ++failed;
        } else {
            ++r.inFlight;
        }
    }
    r.require(r.injected == expected_sends,
              "injected " + std::to_string(r.injected) + " != " +
                  std::to_string(expected_sends) + " generated sends");
    r.require(delivered == r.delivered && failed == ns.failed.value(),
              "message states disagree with the delivered/failed "
              "counters");
    r.require(r.delivered + r.deadLettered + r.inFlight == r.injected,
              "accounting identity: delivered " +
                  std::to_string(r.delivered) + " + dead-lettered " +
                  std::to_string(r.deadLettered) + " + in-flight " +
                  std::to_string(r.inFlight) + " != injected " +
                  std::to_string(r.injected));
    {
        Scope s("check.digest");
        r.fingerprint = fnv1a(core::outcomeDigest(engine));
    }

    auto &c = r.simLayer;
    c["net.retries"] = static_cast<double>(ns.retries.value());
    c["net.nacks"] = static_cast<double>(ns.nacks.value());
    c["net.useful_attempt_share"] =
        ratio(static_cast<double>(r.delivered),
              static_cast<double>(r.delivered + ns.retries.value()));
    c["rmb.compaction_moves"] =
        static_cast<double>(rs.compactionMoves.value());
    c["rmb.compaction_moves_per_delivered"] =
        ratio(static_cast<double>(rs.compactionMoves.value()),
              static_cast<double>(r.delivered));
    c["rmb.cycle_flips"] = static_cast<double>(rs.cycleFlips.value());
    c["net.queue_delay_mean_ticks"] = meanOf(ns.queueDelay);
    c["net.setup_latency_mean_ticks"] = meanOf(ns.setupLatency);
    c["rmb.blocked_time_mean_ticks"] = meanOf(rs.blockedTime);
    c["rmb.faults.injected"] =
        static_cast<double>(rs.faultsInjected.value());
    c["rmb.watchdog_fires"] = static_cast<double>(rs.watchdogFires.value());
    c["rmb.deadletter.total"] = static_cast<double>(r.deadLettered);
    c["rmb.messages_recovered"] =
        static_cast<double>(rs.messagesRecovered.value());
    obs::MetricsRegistry &reg = engine.metrics();
    c["hier.bridge.deflections"] =
        reg.has("hier.bridge.deflections")
            ? static_cast<double>(
                  reg.counter("hier.bridge.deflections").value())
            : 0.0;
}

void
countSimEvents(const sim::Simulator &simulator, Rep &r)
{
    r.simLayer["sim.events"] =
        static_cast<double>(simulator.numExecuted());
    r.simLayer["sim.events_per_delivered"] =
        ratio(static_cast<double>(simulator.numExecuted()),
              static_cast<double>(r.delivered));
}

// ---------------------------------------------------------------
// Workloads.  Each function is one repetition: set-up (inputs from
// the seed + network construction), the timed run, the checks.
// ---------------------------------------------------------------

struct Ctx
{
    std::uint64_t seed = 1;
    std::uint32_t rep = 0;       //!< repetition index: its own inputs
    bool traced = false;
    std::uint32_t shardJobs = 1; //!< hier_faults only
    std::string outDir = ".";
};

/**
 * Engine and input streams of repetition @p rep: pure functions of
 * (seed, rep), so every repetition of a run simulates different
 * inputs and the run as a whole is a pure function of the seed.
 */
struct Streams
{
    explicit Streams(const Ctx &ctx)
        : root(sim::Random(ctx.seed).split(ctx.rep)),
          engineSeed(root.split(0).next()), inputs(root.split(1))
    {}
    sim::Random root;
    std::uint64_t engineSeed;
    sim::Random inputs;
};

core::RmbConfig
ringConfig(core::EngineKind engine, std::uint32_t nodes,
           std::uint32_t buses, std::uint64_t seed)
{
    core::RmbConfig cfg;
    cfg.engine = engine;
    cfg.numNodes = nodes;
    cfg.numBuses = buses;
    cfg.seed = seed;
    return cfg;
}

/** Open-loop replay shared by ring_event_local and hier_faults. */
void
replayWorkload(const Ctx &ctx, const core::RmbConfig &base,
               net::NodeId max_distance, double rate,
               std::uint32_t payload, sim::Tick duration, Rep &r)
{
    const std::size_t first_span = spans.size();
    const double cpu0 = processCpuSeconds();
    Streams streams(ctx);
    core::RmbConfig cfg = base;
    cfg.seed = streams.engineSeed;

    const auto t_setup = Clock::now();
    workload::Trace trace;
    sim::Simulator simulator;
    std::unique_ptr<core::Engine> engine;
    {
        Scope s("setup");
        {
            Scope g("workload.generate");
            workload::LocalRingTraffic pattern(cfg.numNodes,
                                               max_distance);
            trace = workload::generateTrace(pattern, rate, payload,
                                            duration, streams.inputs);
        }
        Scope c("rmb.construct");
        engine = core::makeEngine(simulator, cfg);
    }
    const auto t_run = Clock::now();
    r.setupS = secondsBetween(t_setup, t_run);

    ProfWindow prof(ctx.traced);
    {
        Scope s("run");
        Scope w("workload.replay");
        workload::replayTrace(*engine, trace);
    }
    r.runS = secondsBetween(t_run, Clock::now());
    prof.finish(r, ctx.shardJobs == 1);

    {
        Scope s("check");
        checkEngine(*engine, trace.size(), r);
    }
    countSimEvents(simulator, r);
    if (cfg.topology == core::TopologyKind::Hier) {
        const net::NodeId ring = cfg.numNodes / cfg.localRings;
        std::uint64_t cross = 0;
        for (const workload::TraceEvent &e : trace)
            cross += e.src / ring != e.dst / ring;
        r.simLayer["hier.deflections_per_cross_msg"] = ratio(
            r.simLayer["hier.bridge.deflections"],
            static_cast<double>(cross));
    }
    r.cpuS = processCpuSeconds() - cpu0;
    spanLayers(r, first_span);
}

/**
 * ring_event_local: flat ring, event engine, sparse ring-local
 * stream below saturation; every hop and INC tick is a DES event.
 */
void
ringEventLocal(const Ctx &ctx, Rep &r)
{
    replayWorkload(ctx, ringConfig(core::EngineKind::Event, 256, 8, 0),
                   /*max_distance=*/16, /*rate=*/0.002, /*payload=*/32,
                   /*duration=*/60'000, r);
}

/**
 * hier_faults: 64 local kernel rings behind bridges, mostly-local
 * traffic with short global legs, transient segment, node and bridge
 * faults under the delivery supervisor.
 */
void
hierFaults(const Ctx &ctx, Rep &r)
{
    core::RmbConfig cfg = ringConfig(core::EngineKind::Kernel, 8192, 4, 0);
    cfg.topology = core::TopologyKind::Hier;
    cfg.localRings = 64;
    cfg.shardJobs = ctx.shardJobs;
    cfg.transientFaults = true;
    cfg.faultMtbf = 400;
    cfg.faultMttrMin = 200;
    cfg.faultMttrMax = 800;
    cfg.faultNodeProb = 0.1;
    cfg.faultBridgeProb = 0.1;
    cfg.watchdogTimeout = 1'500;
    replayWorkload(ctx, cfg, /*max_distance=*/32, /*rate=*/0.0002,
                   /*payload=*/32, /*duration=*/40'000, r);
}

/**
 * ring_kernel_kperm: the paper's Theorem 1 workload on the
 * word-parallel kernel - a closed loop of random k-permutations
 * (distinct sources and destinations, clockwise ring load <= k).
 */
void
ringKernelKperm(const Ctx &ctx, Rep &r)
{
    constexpr std::uint32_t kNodes = 1024;
    constexpr std::uint32_t kBuses = 16;
    constexpr std::uint32_t kPairs = 24;
    constexpr std::uint32_t kBatches = 160;
    constexpr std::uint32_t kPayload = 64;

    const std::size_t first_span = spans.size();
    const double cpu0 = processCpuSeconds();
    Streams streams(ctx);

    const auto t_setup = Clock::now();
    std::vector<workload::PairList> batches(kBatches);
    sim::Simulator simulator;
    std::unique_ptr<core::Engine> engine;
    {
        Scope s("setup");
        {
            Scope g("workload.generate");
            for (auto &pairs : batches) {
                do {
                    pairs = workload::randomPartialPermutation(
                        kNodes, kPairs, streams.inputs);
                } while (workload::maxRingLoad(kNodes, pairs) > kBuses);
            }
        }
        Scope c("rmb.construct");
        engine = core::makeEngine(
            simulator, ringConfig(core::EngineKind::Kernel, kNodes,
                                  kBuses, streams.engineSeed));
    }
    const auto t_run = Clock::now();
    r.setupS = secondsBetween(t_setup, t_run);

    std::vector<workload::BatchResult> results;
    results.reserve(kBatches);
    ProfWindow prof(ctx.traced);
    {
        Scope s("run");
        for (const auto &pairs : batches) {
            Scope b("workload.batch");
            results.push_back(
                workload::runBatch(*engine, pairs, kPayload));
        }
    }
    r.runS = secondsBetween(t_run, Clock::now());
    prof.finish(r, true);

    {
        Scope s("check");
        for (std::size_t i = 0; i < results.size(); ++i)
            r.require(results[i].completed &&
                          results[i].delivered == batches[i].size(),
                      "Theorem 1: batch " + std::to_string(i) +
                          " delivered " +
                          std::to_string(results[i].delivered) +
                          " of " + std::to_string(batches[i].size()));
        checkEngine(*engine,
                    static_cast<std::uint64_t>(kBatches) * kPairs, r);
    }
    countSimEvents(simulator, r);
    r.cpuS = processCpuSeconds() - cpu0;
    spanLayers(r, first_span);
}

/** The sweep_small grid: both engines, N 16..64, several k and
 *  loads, all below saturation, under master seed @p seed. */
std::string
sweepSpecJson(std::uint64_t seed)
{
    std::ostringstream os;
    os << R"({"name": "perfbench_sweep_small", "seed": )" << seed
       << R"(, "mode": "cartesian",
 "base": {"network": "rmb", "workload": "local:4", "payload": 16,
          "duration": 18000},
 "axes": [
  {"field": "engine", "values": ["event", "kernel"]},
  {"field": "nodes", "values": [16, 32, 64]},
  {"field": "buses", "values": [2, 4]},
  {"field": "rate", "values": [0.001, 0.002, 0.003, 0.004]}
 ]})";
    return os.str();
}

double
pointMetric(const exp::PointResult &p, const std::string &name)
{
    for (const auto &[key, value] : p.metrics)
        if (key == name)
            return std::stod(value);
    return 0.0;
}

/**
 * sweep_small: exp::runSweep over a small grid on two workers, then
 * exp::aggregate and the RunReport write.  Per-point construction,
 * teardown and the attached CountingSink dominate.
 */
void
sweepSmall(const Ctx &ctx, Rep &r)
{
    constexpr unsigned kWorkers = 2;
    const std::size_t first_span = spans.size();
    const double cpu0 = processCpuSeconds();

    const auto t_setup = Clock::now();
    exp::SweepSpec spec;
    std::vector<exp::PointConfig> grid;
    {
        Scope s("setup");
        {
            Scope p("exp.parse");
            const std::string text =
                sweepSpecJson(Streams(ctx).inputs.next());
            std::vector<std::string> errors;
            if (!exp::SweepSpec::fromJson(text, spec, errors)) {
                for (const auto &e : errors)
                    r.violations.push_back("spec: " + e);
                return;
            }
        }
        // Every point's inputs: its configuration and split seed.
        Scope g("workload.generate");
        grid = spec.points();
    }
    const auto t_run = Clock::now();
    r.setupS = secondsBetween(t_setup, t_run);

    const std::string report_path =
        ctx.outDir + "/sweep_small_report.json";
    double point_seconds = 0.0;
    exp::SweepOutcome outcome;
    obs::RunReport report("perfbench");
    ProfWindow prof(ctx.traced);
    double sweep_wall = 0.0;
    {
        Scope s("run");
        {
            Scope sw("exp.sweep");
            const auto t_sweep = Clock::now();
            // Point spans are rebuilt from the progress callback,
            // which the runner calls serially as each point ends.
            outcome = exp::runSweep(
                spec, kWorkers, [&](const exp::Progress &p) {
                    point_seconds += p.wallMillis * 1e-3;
                    const double end = spans.now();
                    spans.add("exp.point", end - p.wallMillis * 1e-3,
                              end);
                });
            sweep_wall = secondsBetween(t_sweep, Clock::now());
        }
        {
            Scope a("exp.aggregate");
            report = exp::aggregate(spec, outcome);
        }
        Scope w("obs.report_write");
        report.write(report_path);
    }
    r.runS = secondsBetween(t_run, Clock::now());
    prof.finish(r, false);

    {
        Scope s("check");
        r.require(outcome.points.size() == grid.size(),
                  "the sweep ran a different grid than the spec's");
        std::ifstream in(report_path);
        const std::string written{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
        r.require(written == report.toJson() + "\n",
                  "the written RunReport differs from the aggregate");
        r.require(outcome.failures == 0,
                  std::to_string(outcome.failures) +
                      " sweep points failed");
        double trace_events = 0.0;
        double retries = 0.0;
        double nacks = 0.0;
        double moves = 0.0;
        for (std::size_t i = 0; i < outcome.results.size(); ++i) {
            const exp::PointResult &p = outcome.results[i];
            if (!p.ok)
                r.violations.push_back("point " + p.error);
            const auto injected =
                static_cast<std::uint64_t>(pointMetric(p, "injected"));
            const auto delivered =
                static_cast<std::uint64_t>(pointMetric(p, "delivered"));
            const auto failed =
                static_cast<std::uint64_t>(pointMetric(p, "failed"));
            r.require(delivered + failed == injected,
                      "point " + std::to_string(i) +
                          " not drained: delivered + failed != injected");
            r.injected += injected;
            r.delivered += delivered;
            // exp owns each point's network: the per-point mean
            // latency is the latency sample.
            ++r.latencies[static_cast<std::uint64_t>(
                std::llround(pointMetric(p, "mean_latency")))];
            retries += pointMetric(p, "retries");
            nacks += pointMetric(p, "nacks");
            moves += pointMetric(p, "compaction_moves");
            for (const auto &[key, value] : p.metrics)
                if (key.rfind("trace.events.", 0) == 0)
                    trace_events += std::stod(value);
        }
        r.fingerprint = fnv1a(written);
        auto &c = r.simLayer;
        c["obs.trace_events"] = trace_events;
        c["obs.report_bytes"] = static_cast<double>(written.size());
        c["net.retries"] = retries;
        c["net.nacks"] = nacks;
        c["net.useful_attempt_share"] =
            ratio(static_cast<double>(r.delivered),
                  static_cast<double>(r.delivered) + retries);
        c["rmb.compaction_moves"] = moves;
        c["rmb.compaction_moves_per_delivered"] =
            ratio(moves, static_cast<double>(r.delivered));
    }
    r.hostLayer["exp.worker_busy_share"] =
        ratio(point_seconds, kWorkers * sweep_wall);
    r.cpuS = processCpuSeconds() - cpu0;
    spanLayers(r, first_span);

    if (ctx.traced) {
        // exp builds each point's engine internally; measure the
        // same constructions from outside, after the timed phase.
        Scope s("probe");
        const auto t0 = Clock::now();
        for (const exp::PointConfig &pt : grid) {
            Scope c("rmb.construct");
            sim::Simulator simulator;
            core::makeEngine(
                simulator,
                ringConfig(pt.engine == "kernel" ? core::EngineKind::Kernel
                                                 : core::EngineKind::Event,
                           pt.nodes, pt.buses, pt.seed));
        }
        r.hostLayer["rmb.construct_s"] =
            secondsBetween(t0, Clock::now());
    }
}

struct Workload
{
    const char *name;
    /** Nominal host seconds of one repetition; only sets how many
     *  repetitions --seconds buys. */
    double nominalRepSeconds;
    void (*run)(const Ctx &, Rep &);
};

const Workload kWorkloads[] = {
    {"ring_event_local", 1.0, ringEventLocal},
    // The kernel's bitplane scans are compute-bound and swing most with
    // host contention; more repetitions average that out.
    {"ring_kernel_kperm", 0.8, ringKernelKperm},
    {"hier_faults", 1.0, hierFaults},
    {"sweep_small", 0.5, sweepSmall},
};

// ---------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------

/** Nearest-rank percentile of a latency histogram of @p n samples. */
std::uint64_t
percentile(const std::map<std::uint64_t, std::uint64_t> &hist,
           std::uint64_t n, double p)
{
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p / 100.0 * static_cast<double>(n))));
    std::uint64_t seen = 0;
    for (const auto &[ticks, count] : hist) {
        seen += count;
        if (seen >= rank)
            return ticks;
    }
    return 0;
}

/** The highest percentile of the standard ladder (p99.99, p99.9,
 *  p99, p90, p75, p50) that still leaves at least ten samples above
 *  it. */
double
tailPercentile(std::size_t n)
{
    static const double kLadder[] = {99.99, 99.9, 99.0, 90.0, 75.0};
    for (double p : kLadder) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n)));
        if (n >= rank + 10)
            return p;
    }
    return 50.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
unitOf(const std::string &name)
{
    auto ends = [&](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends("_s"))
        return "s";
    if (ends("_ticks"))
        return "ticks";
    if (ends("_share") || ends("_per_delivered") ||
        ends("_per_cross_msg") || ends("_ratio") ||
        name == "trace_overhead")
        return "ratio";
    if (ends("_bytes"))
        return "bytes";
    return "count";
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << metrics[i].value
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

/** A second run of the same inputs must reproduce @p first
 *  exactly, with or without tracing and for any shard-thread count. */
void
requireSameOutcome(const Rep &first, Rep &r)
{
    r.require(r.fingerprint == first.fingerprint &&
                  r.injected == first.injected &&
                  r.delivered == first.delivered &&
                  r.latencies == first.latencies &&
                  r.simLayer == first.simLayer,
              "nondeterminism: the same inputs produced a different "
              "simulated outcome");
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\nworkloads:";
    for (const Workload &w : kWorkloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    Ctx ctx;
    double seconds = 10.0;
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--", 0) != 0 || i + 1 >= argc)
            usage("bad argument '" + a + "'");
        args[a.substr(2)] = argv[++i];
    }
    for (const auto &[key, value] : args) {
        if (key == "workload")
            name = value;
        else if (key == "seed")
            ctx.seed = std::stoull(value);
        else if (key == "seconds")
            seconds = std::stod(value);
        else if (key == "trace")
            ctx.traced = value == "1";
        else if (key == "out")
            ctx.outDir = value;
        else
            usage("unknown flag --" + key);
    }
    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            wl = &w;
    if (wl == nullptr)
        usage("unknown workload '" + name + "'");
    const bool trace_mode = ctx.traced;

    // Fixed work: the repetition count depends on --seconds only.
    const auto reps = static_cast<std::uint32_t>(std::max(
        3L, std::lround(seconds / wl->nominalRepSeconds /
                        (trace_mode ? 2.0 : 1.0))));

    // Untraced repetitions give the end-to-end metrics.  In trace
    // mode each one is followed by a traced twin on the same inputs,
    // which must reproduce its outcome exactly.
    std::vector<Rep> untraced(reps);
    std::vector<Rep> traced(trace_mode ? reps : 0);
    for (std::uint32_t i = 0; i < reps; ++i) {
        ctx.rep = i;
        ctx.traced = false;
        spans.enable(false);
        wl->run(ctx, untraced[i]);
        std::fprintf(stderr,
                     "perfbench: rep %u setup %.6f s run %.6f s cpu %.6f s "
                     "delivered %llu\n",
                     i, untraced[i].setupS, untraced[i].runS,
                     untraced[i].cpuS,
                     static_cast<unsigned long long>(untraced[i].delivered));
        if (trace_mode) {
            ctx.traced = true;
            spans.enable(true);
            const std::uint64_t root = spans.open("rep");
            wl->run(ctx, traced[i]);
            spans.close(root);
            requireSameOutcome(untraced[i], traced[i]);
        }
    }
    spans.enable(false);

    // Shard-thread probe (traced hier_faults only): repetition 0 at
    // shardJobs=2 must give the same outcome as at shardJobs=1.
    double jobs2_ratio = 0.0;
    if (trace_mode && std::string(wl->name) == "hier_faults") {
        Ctx two = ctx;
        two.rep = 0;
        two.traced = false;
        two.shardJobs = 2;
        Rep r2;
        wl->run(two, r2);
        requireSameOutcome(untraced[0], r2);
        traced[0].violations.insert(traced[0].violations.end(),
                                    r2.violations.begin(),
                                    r2.violations.end());
        jobs2_ratio = ratio(r2.runS, untraced[0].runS);
    }

    // The run's simulated outcome, pooled over its repetitions.
    std::vector<std::string> violations;
    std::map<std::uint64_t, std::uint64_t> lat;
    std::uint64_t samples = 0;
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::string fingerprints;
    for (const std::vector<Rep> *set : {&untraced, &traced})
        for (const Rep &r : *set)
            violations.insert(violations.end(), r.violations.begin(),
                              r.violations.end());
    for (const Rep &r : untraced) {
        for (const auto &[ticks, count] : r.latencies) {
            lat[ticks] += count;
            samples += count;
        }
        injected += r.injected;
        delivered += r.delivered;
        fingerprints += std::to_string(r.fingerprint) + ";";
    }
    const double tail_p = tailPercentile(samples);
    const auto tail_rank = static_cast<std::uint64_t>(
        std::ceil(tail_p / 100.0 * static_cast<double>(samples)));
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(fnv1a(fingerprints)));
    std::cout << "perfbench: workload=" << wl->name
              << " seed=" << ctx.seed << " reps=" << reps
              << " fingerprint=" << fp << " injected=" << injected
              << " delivered=" << delivered
              << " latency_samples=" << samples << " tail=p" << tail_p
              << " (" << samples - std::min(tail_rank, samples)
              << " samples beyond)\n";

    const std::uint64_t attempted = std::max<std::uint64_t>(1, injected);
    const std::uint64_t failed = injected - delivered;
    if (!violations.empty()) {
        for (const std::string &v : violations)
            std::cerr << "perfbench: CHECK FAILED: " << v << "\n";
        printResult(false, attempted, failed, {});
        return 1;
    }

    std::vector<Metric> metrics;
    if (!trace_mode) {
        std::vector<double> thr;
        std::vector<double> cpu;
        std::vector<double> setup;
        for (const Rep &r : untraced) {
            thr.push_back(ratio(static_cast<double>(r.delivered), r.runS));
            cpu.push_back(r.cpuS);
            setup.push_back(r.setupS);
        }
        metrics = {
            {"delivered_per_host_s", median(thr), "msg/s"},
            {"cpu_s", median(cpu), "s"},
            {"setup_s", median(setup), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"delivered_share",
             ratio(static_cast<double>(delivered),
                   static_cast<double>(injected)),
             "ratio"},
            {"sim_latency_p50_ticks",
             static_cast<double>(percentile(lat, samples, 50.0)),
             "ticks"},
            {"sim_latency_tail_ticks",
             static_cast<double>(percentile(lat, samples, tail_p)),
             "ticks"},
        };
    } else {
        // Per-layer values are medians over the traced repetitions.
        std::map<std::string, std::vector<double>> layer;
        for (const Rep &r : traced)
            for (const auto *m : {&r.hostLayer, &r.simLayer, &r.tracedSim})
                for (const auto &[k, v] : *m)
                    layer[k].push_back(v);
        for (std::size_t i = 0; i < traced.size(); ++i)
            layer["trace_overhead"].push_back(
                ratio(traced[i].runS, untraced[i].runS));
        layer["hier.jobs2_wall_ratio"] = {jobs2_ratio};
        // Every per-layer metric is reported; a layer a workload does
        // not exercise reads 0.
        static const char *const kPerLayer[] = {
            "workload.generate_s", "rmb.construct_s", "sim.events",
            "sim.events_per_delivered", "sim.unscoped_s",
            "prof.event.inject_s", "prof.event.advance_s",
            "prof.event.compaction_make_s",
            "prof.event.compaction_break_s", "prof.kernel.wheel_s",
            "prof.kernel.make_pass_s", "prof.kernel.compaction_break_s",
            "prof.hier.window_s", "prof.hier.shard_step_s",
            "prof.hier.drain_barrier_s", "prof.hier.bridge_exchange_s",
            "hier.windows", "hier.bridge.deflections",
            "hier.deflections_per_cross_msg", "hier.jobs2_wall_ratio",
            "net.retries", "net.nacks", "net.useful_attempt_share",
            "rmb.compaction_moves", "rmb.compaction_moves_per_delivered",
            "rmb.cycle_flips", "net.queue_delay_mean_ticks",
            "net.setup_latency_mean_ticks", "rmb.blocked_time_mean_ticks",
            "rmb.faults.injected", "rmb.watchdog_fires",
            "rmb.deadletter.total", "rmb.messages_recovered",
            "exp.parse_s", "prof.exp.point_s", "exp.worker_busy_share",
            "obs.trace_events", "exp.aggregate_s", "obs.report_write_s",
            "obs.report_bytes", "check.audit_s", "check.digest_s",
            "trace_overhead",
        };
        for (const char *m : kPerLayer) {
            const auto it = layer.find(m);
            metrics.push_back(
                {m, it == layer.end() ? 0.0 : median(it->second),
                 unitOf(m)});
        }
        const std::string path = ctx.outDir + "/spans-" + wl->name +
                                 "-seed" + std::to_string(ctx.seed) +
                                 ".json";
        spans.write(path, std::string(wl->name) + "-" +
                              std::to_string(ctx.seed) + "-" + fp);
        std::cout << "perfbench: spans written to " << path << "\n";
    }
    printResult(true, attempted, failed, metrics);
    return 0;
}
