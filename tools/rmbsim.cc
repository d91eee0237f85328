/**
 * @file
 * rmbsim - command-line driver for the RMB simulator.
 *
 * Runs a workload against any of the implemented networks and
 * prints a statistics table; can also record the generated workload
 * to a trace file or replay a previously recorded trace, so the
 * exact same communication pattern can be compared across networks.
 *
 * Examples:
 *   rmbsim --network rmb --nodes 32 --buses 4 \
 *          --workload bitrev --payload 64
 *   rmbsim --network torus --width 8 --height 4 --buses 2 \
 *          --workload uniform --rate 0.002 --duration 50000
 *   rmbsim --network rmb --nodes 16 --buses 4 \
 *          --workload uniform --rate 0.001 --duration 20000 \
 *          --record /tmp/u.trace
 *   rmbsim --network multibus --nodes 16 --buses 4 \
 *          --replay /tmp/u.trace
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "exp/eval.hh"
#include "exp/spec.hh"
#include "obs/json.hh"
#include "obs/prof.hh"
#include "obs/run_report.hh"
#include "obs/sinks.hh"
#include "rmb/engine.hh"
#include "rmb/fault_plan.hh"
#include "report/report.hh"
#include "sim/simulator.hh"
#include "workload/trace.hh"

namespace {

using namespace rmb;

struct Options
{
    /** Every result-affecting setting, parsed through the exp field
     *  table; recipe.seed is --seed, which seeds both the network
     *  and the workload. */
    exp::PointConfig recipe;
    /** --fault-plan FILE: replayable JSON fault campaign. */
    std::string faultPlanPath;
    std::string record;
    std::string replay;
    bool csv = false;
    /** --json [FILE]: write an obs::RunReport to FILE, or to stdout
     *  when no FILE follows. */
    bool json = false;
    std::string jsonPath;
    /** --trace FILE: stream every protocol event there as JSONL. */
    std::string tracePath;
    /** --timeline T: sample period in ticks; 0 = duration/100.
     *  An explicit period additionally enables per-shard series on
     *  hier runs (they scale with ring count, so they are opt-in). */
    sim::Tick timeline = 0;
    bool heatmap = false;
    /** --profile: record host-time phases; adds a "profile" report
     *  section (excluded from digests and goldens — host time is
     *  nondeterministic) and a stdout phase table. */
    bool profile = false;
};

/**
 * Prints the option summary and exits: to stdout with code 0 when
 * the user asked for it (--help), to stderr with code 2 on a
 * command-line mistake.
 */
[[noreturn]] void
usage(int code = 2)
{
    (code == 0 ? std::cout : std::cerr)
        << "usage: rmbsim [options]\n"
           "run recipe (the sweep spec fields, docs/SWEEPS.md):\n"
        << exp::PointConfig::flagHelp()
        << "run control:\n"
           "  --seed S                    network and workload seed\n"
           "  --fault-plan FILE           replayable JSON fault"
           " campaign (docs/FAULTS.md)\n"
           "  --record FILE | --replay FILE\n"
           "  --csv | --json [FILE] | --heatmap\n"
           "  --trace FILE                JSONL protocol events\n"
           "  --timeline T                report sample period,"
           " 0 = duration/100; an explicit\n"
           "                              T adds per-shard series on"
           " hier runs\n"
           "  --profile                   host-time phase table plus a"
           " \"profile\" report section\n"
           "  --help | -h\n";
    std::exit(code);
}

/** A malformed command line: the message, then exit 2. */
[[noreturn]] void
refuse(const std::string &why)
{
    std::cerr << "rmbsim: " << why << "\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string error;
        const int used = o.recipe.applyFlag(
            arg, i + 1 < argc ? argv[i + 1] : nullptr, error);
        if (!error.empty())
            refuse(error);
        if (used >= 0) {
            i += used;
        } else if (arg == "--seed") {
            o.recipe.seed =
                common::flagUint<std::uint64_t>("rmbsim", arg, need(i));
        } else if (arg == "--fault-plan") {
            o.faultPlanPath = need(i);
        } else if (arg == "--record") {
            o.record = need(i);
        } else if (arg == "--replay") {
            o.replay = need(i);
        } else if (arg == "--csv") {
            o.csv = true;
        } else if (arg == "--json") {
            o.json = true;
            // Optional argument: a bare --json writes the report
            // to stdout.
            if (i + 1 < argc && argv[i + 1][0] != '-')
                o.jsonPath = argv[++i];
        } else if (arg == "--trace") {
            o.tracePath = need(i);
        } else if (arg == "--timeline") {
            o.timeline =
                common::flagUint<sim::Tick>("rmbsim", arg, need(i));
        } else if (arg == "--heatmap") {
            o.heatmap = true;
        } else if (arg == "--profile") {
            o.profile = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage();
        }
    }
    return o;
}

/**
 * Seed / config / build identity for reproducing any artifact.  The
 * digest covers the recipe (never shard_jobs: reports are
 * byte-compared across --jobs values), the seed, the fault plan and
 * the replayed trace; output paths are excluded.
 */
std::string
provenanceJson(const Options &o)
{
    const exp::PointConfig &pt = o.recipe;
    obs::JsonWriter json;
    json.beginObject();
    json.field("seed", pt.seed);
    json.field("config_digest",
               pt.digest(std::to_string(pt.seed) + '|' +
                         o.faultPlanPath + '|' + o.replay));
#ifdef NDEBUG
    json.field("build_type", "release");
#else
    json.field("build_type", "debug");
#endif
    json.field("engine", pt.engine);
    json.field("topology", pt.topology);
    json.endObject();
    return json.str();
}

/** Fixed-schema per-kind event tallies for the report. */
std::string
traceCountsJson(const obs::CountingSink &counts)
{
    obs::JsonWriter json;
    json.beginObject();
    json.beginObject("events");
    for (std::size_t k = 0; k < obs::kNumEventKinds; ++k) {
        const auto kind = static_cast<obs::EventKind>(k);
        json.field(obs::eventKindName(kind), counts.count(kind));
    }
    json.endObject();
    json.field("total", counts.total());
    json.endObject();
    return json.str();
}

void
writeReport(const Options &o, const net::Network &network,
            sim::Tick now, const obs::CountingSink &counts,
            const obs::TimelineSampler *timeline)
{
    obs::RunReport report("rmbsim");
    const exp::PointConfig &pt = o.recipe;
    report.set("network", pt.network);
    if (pt.topology != "flat")
        report.set("topology", pt.topology);
    report.set("workload", pt.workload);
    report.set("nodes", std::uint64_t{network.numNodes()});
    report.set("payload", std::uint64_t{pt.payload});
    report.set("seed", pt.seed);
    report.set("ticks", static_cast<std::uint64_t>(now));
    report.setRaw("provenance", provenanceJson(o));
    report.setRaw("stats", report::statsToJson(network, now));
    report.setRaw("metrics", network.metrics().snapshot(now));
    report.setRaw("trace", traceCountsJson(counts));
    if (timeline != nullptr)
        report.setRaw("timeline", timeline->toJson());
    // Host wall-clock is nondeterministic by nature, so "profile"
    // must stay the report's only nondeterministic section: digests
    // and goldens ignore it (the ctest strip-compare pair proves the
    // rest of the report is byte-identical across runs).
    if (o.profile)
        report.setRaw("profile", obs::prof::reportJson());
    if (o.jsonPath.empty())
        std::cout << report.toJson() << "\n";
    else
        report.write(o.jsonPath);
}

void
printStats(const Options &o, const net::Network &network,
           sim::Tick now,
           const obs::CountingSink &counts,
           const obs::TimelineSampler *timeline)
{
    if (o.json)
        writeReport(o, network, now, counts, timeline);
    if (o.heatmap) {
        if (const auto *rmb =
                dynamic_cast<const core::Engine *>(&network)) {
            report::utilizationHeatmap(std::cout, *rmb, now);
        }
    }
    // A report on stdout, or a heatmap next to a report file,
    // replaces the table.
    if (o.json && (o.heatmap || o.jsonPath.empty()))
        return;
    const auto &s = network.stats();
    TextTable t("rmbsim results: " + network.name(),
                {"metric", "value"});
    t.addRow({"simulated ticks", TextTable::num(
                                     static_cast<std::uint64_t>(
                                         now))});
    t.addRow({"injected", TextTable::num(s.injected)});
    t.addRow({"delivered", TextTable::num(s.delivered)});
    t.addRow({"failed", TextTable::num(s.failed)});
    t.addRow({"nacks", TextTable::num(s.nacks)});
    t.addRow({"retries", TextTable::num(s.retries)});
    t.addRow({"mean latency", TextTable::num(s.totalLatency.mean(),
                                             1)});
    t.addRow({"p95 latency",
              TextTable::num(s.totalLatency.percentile(95), 1)});
    t.addRow({"mean setup",
              TextTable::num(s.setupLatency.mean(), 1)});
    t.addRow({"mean hops", TextTable::num(s.pathLength.mean(), 2)});
    if (s.activeCircuits.peakKnown())
        t.addRow({"peak circuits",
                  TextTable::num(static_cast<std::uint64_t>(
                      s.activeCircuits.maximum()))});
    if (const auto *rmb =
            dynamic_cast<const core::Engine *>(&network)) {
        t.addRow({"compaction moves",
                  TextTable::num(rmb->rmbStats().compactionMoves)});
        t.addRow({"max cycle skew",
                  TextTable::num(rmb->rmbStats().maxCycleSkew)});
        t.addRow({"avg segment util %",
                  TextTable::num(
                      100.0 * rmb->averageSegmentUtilization(now),
                      2)});
    }
    if (o.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    // The phase table only joins the human-readable rendering;
    // machine modes (--csv/--json) carry the profile in the report.
    if (o.profile && !o.csv) {
        const obs::prof::PhaseNode root = obs::prof::merged();
        if (!root.children.empty())
            obs::prof::printTable(std::cout, root);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    const exp::PointConfig &pt = o.recipe;
    // Enabled before any network work so construction phases are
    // captured too; when off, every scope is a single branch.
    obs::prof::setEnabled(o.profile);

    sim::Simulator simulator;
    core::RmbConfig cfg =
        exp::rmbConfig(pt, pt.seed, core::VerifyLevel::Cheap);
    // A scripted fault plan hits occupied segments too, so it needs
    // the same recovery machinery as the stochastic schedule.
    if (!o.faultPlanPath.empty())
        cfg.transientFaults = true;
    std::string error;
    auto network = exp::makeNetwork(pt, cfg, simulator, error);
    if (!network)
        fatal(error);

    if (!o.faultPlanPath.empty()) {
        auto *eng = dynamic_cast<core::Engine *>(network.get());
        if (eng == nullptr) {
            fatal("--fault-plan needs an RMB ring network "
                  "(--network rmb, dualring, torus or grid); '",
                  pt.network,
                  "' has no fault domain");
        }
        std::ifstream in(o.faultPlanPath);
        if (!in)
            fatal("cannot open fault plan '", o.faultPlanPath, "'");
        std::ostringstream text;
        text << in.rdbuf();
        core::FaultPlan plan;
        std::string error;
        if (!core::FaultPlan::parse(text.str(), plan, error))
            fatal("fault plan '", o.faultPlanPath, "': ", error);
        const std::string mismatch = plan.checkAgainst(*eng);
        if (!mismatch.empty())
            fatal("fault plan '", o.faultPlanPath, "': ", mismatch);
        plan.apply(*eng);
    }

    // Sink stack: --trace streams JSONL; a JSON report additionally
    // keeps per-kind counters (the report's "trace" section).  Both
    // are pure observers, so attaching them never perturbs the run.
    obs::CountingSink counts;
    std::unique_ptr<obs::JsonlFileSink> fileSink;
    if (!o.tracePath.empty())
        fileSink = std::make_unique<obs::JsonlFileSink>(o.tracePath);
    obs::TeeSink tee(o.json ? &counts : nullptr, fileSink.get());
    if (o.json || fileSink)
        network->setTraceSink(&tee);

    // The report's timeline: every duration/100 ticks unless
    // --timeline sets the period, which also adds per-shard series.
    sim::Tick period = 0;
    if (o.json)
        period = o.timeline ? o.timeline
                            : std::max<sim::Tick>(pt.duration / 100, 1);
    const bool shard_series = o.timeline > 0;
    sim::Random rng(pt.seed);

    // --replay, or --record of an open loop (a batch records below).
    workload::Trace trace;
    std::unique_ptr<workload::TrafficPattern> pattern;
    if (!o.replay.empty()) {
        std::ifstream in(o.replay);
        if (!in)
            fatal("cannot open trace '", o.replay, "'");
        trace = workload::readTrace(in);
    } else if (!o.record.empty() &&
               (pattern = exp::stochasticPattern(
                    pt, network->numNodes(), error))) {
        trace = workload::generateTrace(*pattern, pt.rate, pt.payload,
                                        pt.duration, rng);
        std::ofstream out(o.record);
        if (!out)
            fatal("cannot write trace '", o.record, "'");
        workload::writeTrace(out, trace);
    }
    // A report on stdout keeps stdout one JSON document: the run
    // summary lines go to stderr then.
    std::ostream &note =
        o.json && o.jsonPath.empty() ? std::cerr : std::cout;
    std::unique_ptr<obs::TimelineSampler> timeline;
    if (!o.replay.empty() || pattern) {
        timeline = exp::startTimeline(
            *network, period, trace.empty() ? 0 : trace.back().time,
            shard_series);
        const auto r = workload::replayTrace(*network, trace);
        if (pattern)
            note << "recorded " << trace.size() << " events to "
                 << o.record << "; replayed locally: " << r.delivered
                 << " delivered\n";
        else
            note << "replayed " << r.injected << " events: "
                 << r.delivered << " delivered, " << r.failed
                 << " failed, makespan " << r.makespan
                 << ", mean latency " << r.meanLatency << "\n";
    } else {
        exp::WorkloadRun run =
            exp::runWorkload(pt, *network, rng, pt.duration / 10,
                             1'000'000, period, shard_series);
        if (!run.error.empty())
            fatal(run.error);
        if (!run.pairs.empty()) {
            note << (run.batch.completed ? "batch completed"
                                         : "batch TIMED OUT")
                 << ": makespan " << run.batch.makespan << "\n";
        } else {
            note << "open loop: offered " << run.openLoop.offeredLoad
                 << " msgs/node/tick, throughput "
                 << run.openLoop.throughput << ", mean latency "
                 << run.openLoop.meanLatency << "\n";
        }
        if (!o.record.empty()) { // a batch: every pair at tick 0
            for (const auto &[src, dst] : run.pairs)
                trace.push_back(
                    workload::TraceEvent{0, src, dst, pt.payload});
            std::ofstream out(o.record);
            workload::writeTrace(out, trace);
        }
        timeline = std::move(run.timeline);
    }
    printStats(o, *network, simulator.now(), counts, timeline.get());
    return 0;
}
