/**
 * @file
 * Experiment E22: chaos campaigns - randomized transient, permanent,
 * whole-node and bridge fault storms across the engine x topology
 * grid, with invariants audited after every epoch (docs/FAULTS.md).
 *
 * Each campaign drives a seed-derived uniform workload through one
 * backend while a FaultSchedule with campaign-specific permanent /
 * node / bridge probabilities tears the fabric down around it.  The
 * simulator runs in fixed-size epochs; after every epoch the bench
 * calls auditInvariants() (structural self-checks that panic on any
 * violation) and samples the availability and degradation curves
 * (delivered fraction, residual bandwidth).
 *
 * Per campaign the report carries the full delivery account -
 * injected, delivered, failed, the dead-letter ledger by reason -
 * plus an "accounted" flag (1 iff injected == delivered + failed and
 * the dead-letter total is within the failed count: no message is
 * lost from the books), the graceful-degradation census, an FNV-1a
 * outcome fingerprint, and for hier campaigns a "deterministic" flag
 * (1 iff shardJobs 1 and 3 produced byte-identical outcomes).
 *
 * tests/data/BENCH_chaos.json pins the machine-independent leaves
 * with zero tolerance for the --fast grid; the chaos_gate ctest runs
 * scripts/check_bench.sh against it with --min-speedup reused as the
 * availability floor (the worst campaign's delivered fraction must
 * stay above it).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

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

std::string
num(double v)
{
    std::ostringstream out;
    out << v;
    return out.str();
}

/** Seed-derived uniform open-loop workload: pure function of the
 *  arguments so every campaign variant sees the same sends. */
std::vector<Send>
uniformWorkload(std::uint32_t nodes, std::uint64_t messages,
                sim::Tick horizon, std::uint64_t seed)
{
    sim::Random rng = sim::Random(seed).split(0xc4a05);
    std::vector<Send> sends;
    sends.reserve(messages);
    for (std::uint64_t i = 0; i < messages; ++i) {
        const auto src =
            static_cast<net::NodeId>(rng.uniformInt(nodes));
        auto dst = static_cast<net::NodeId>(
            rng.uniformInt(nodes - 1));
        if (dst >= src)
            ++dst;
        sends.push_back(Send{rng.uniformRange(0, horizon), src, dst});
    }
    return sends;
}

/** FNV-1a over the outcome digest (every message's final state and
 *  path length): a compact platform-independent fingerprint. */
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

/** One engine x topology cell of the campaign grid. */
struct Campaign
{
    std::string key;
    core::EngineKind engine = core::EngineKind::Event;
    bool hier = false;
};

struct CampaignOut
{
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t failed = 0;
    std::uint64_t deadLettered = 0;
    std::uint64_t deadRetries = 0;
    std::uint64_t deadUnreachable = 0;
    std::uint64_t deadStalled = 0;
    std::uint64_t deadBridgeDead = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultsPermanent = 0;
    std::uint64_t nodeFaults = 0;
    std::uint64_t bridgeFaults = 0;
    std::uint64_t watchdogFires = 0;
    std::uint64_t epochsAudited = 0;
    bool accounted = false;
    double availability = 0.0;
    double residualBandwidth = 1.0;
    double effectiveBuses = 0.0;
    std::string fingerprint;
    std::vector<double> availabilityCurve;
    std::vector<double> degradationCurve;
};

core::RmbConfig
campaignConfig(const Campaign &c, std::uint32_t jobs,
               double permanent_prob, double node_prob,
               double bridge_prob)
{
    core::RmbConfig cfg;
    cfg.engine = c.engine;
    cfg.numNodes = c.hier ? 64 : 32;
    cfg.numBuses = 4;
    if (c.hier) {
        cfg.topology = core::TopologyKind::Hier;
        cfg.localRings = 4;
        cfg.shardJobs = jobs;
    }
    cfg.seed = 42;
    cfg.verify = core::VerifyLevel::Cheap;
    cfg.transientFaults = true;
    cfg.faultMtbf = 400;
    cfg.faultMttrMin = 200;
    cfg.faultMttrMax = 800;
    cfg.faultPermanentProb = permanent_prob;
    cfg.faultNodeProb = node_prob;
    if (c.hier)
        cfg.faultBridgeProb = bridge_prob;
    cfg.watchdogTimeout = 1'500;
    cfg.maxRetries = 32;
    return cfg;
}

/**
 * Run one campaign to quiescence in fixed epochs, auditing the
 * engine's structural invariants at every epoch boundary.
 */
CampaignOut
runCampaign(const Campaign &c, std::uint32_t jobs,
            double permanent_prob, double node_prob,
            double bridge_prob, const std::vector<Send> &sends,
            sim::Tick horizon)
{
    sim::Simulator simulator;
    auto network = core::makeEngine(
        simulator, campaignConfig(c, jobs, permanent_prob,
                                  node_prob, bridge_prob));
    for (const Send &s : sends) {
        simulator.scheduleAt(s.at, [&network, s] {
            network->send(s.src, s.dst, 16);
        });
    }

    CampaignOut out;
    const sim::Tick epoch = 500;
    sim::Tick next_audit = epoch;
    // The fault process never stops scheduling, so the event queue
    // is perpetual; quiescence of the *message* population is the
    // termination condition.  The epoch cap is a diverged-run
    // backstop far above any healthy campaign's length.
    const std::uint64_t max_epochs = 20'000;
    for (;;) {
        simulator.runUntil(next_audit);
        network->auditInvariants();
        ++out.epochsAudited;
        const auto &s = network->stats();
        out.availabilityCurve.push_back(
            s.injected.value() > 0
                ? static_cast<double>(s.delivered.value()) /
                      static_cast<double>(s.injected.value())
                : 1.0);
        out.degradationCurve.push_back(
            network->residualBandwidth());
        next_audit += epoch;
        if (simulator.now() >= horizon && network->quiescent())
            break;
        if (out.epochsAudited >= max_epochs) {
            std::cerr << "bench_chaos: campaign " << c.key
                      << " not quiescent after " << max_epochs
                      << " epochs ("
                      << network->stats().delivered.value() << "+"
                      << network->stats().failed.value() << " of "
                      << network->stats().injected.value()
                      << " accounted)\n";
            std::abort();
        }
    }

    const auto &s = network->stats();
    const core::RmbStats &rs = network->rmbStats();
    out.injected = s.injected.value();
    out.delivered = s.delivered.value();
    out.failed = s.failed.value();
    out.deadLettered = rs.deadLettered.value();
    out.deadRetries = rs.deadRetriesExhausted.value();
    out.deadUnreachable = rs.deadUnreachable.value();
    out.deadStalled = rs.deadStalled.value();
    out.deadBridgeDead = rs.deadBridgeDead.value();
    out.faultsInjected = rs.faultsInjected.value();
    out.faultsPermanent = rs.faultsPermanent.value();
    out.nodeFaults = rs.nodeFaults.value();
    out.bridgeFaults = rs.bridgeFaults.value();
    out.watchdogFires = rs.watchdogFires.value();
    // Every injected message must land in exactly one bucket, and
    // every dead-letter must be one of the failed.
    out.accounted = out.injected == out.delivered + out.failed &&
                    out.deadLettered <= out.failed;
    out.availability =
        out.injected > 0 ? static_cast<double>(out.delivered) /
                               static_cast<double>(out.injected)
                         : 1.0;
    out.residualBandwidth = network->residualBandwidth();
    out.effectiveBuses = network->effectiveBuses();
    out.fingerprint = digestFingerprint(*network);
    return out;
}

int
runReport(const std::string &path, double min_availability,
          bool fast)
{
    const std::vector<Campaign> grid = {
        {"event,flat", core::EngineKind::Event, false},
        {"kernel,flat", core::EngineKind::Kernel, false},
        {"event,hier", core::EngineKind::Event, true},
        {"kernel,hier", core::EngineKind::Kernel, true},
    };
    const sim::Tick horizon = fast ? 6'000 : 20'000;

    obs::JsonWriter w;
    w.beginObject();
    w.field("tool", std::string("bench_chaos"));
    w.field("experiment", std::string("E22"));
    w.field("fast", fast);
    w.field("min_availability", min_availability);

    double worst_availability = 1.0;
    bool all_accounted = true;
    bool all_deterministic = true;
    w.beginObject("campaigns");
    sim::Random prob_rng = sim::Random(42).split(0xca05);
    for (const Campaign &c : grid) {
        // Campaign-specific fault mix, drawn from the bench seed so
        // every run of the grid replays the same storms.
        const double permanent_prob =
            0.05 + 0.20 * prob_rng.uniformReal();
        const double node_prob =
            0.05 + 0.15 * prob_rng.uniformReal();
        const double bridge_prob =
            0.10 + 0.20 * prob_rng.uniformReal();
        const std::uint32_t nodes = c.hier ? 64 : 32;
        const std::uint64_t messages = fast ? nodes * 4 : nodes * 16;
        const auto sends =
            uniformWorkload(nodes, messages, horizon, 42);
        std::cout << "campaign " << c.key << ": " << messages
                  << " msgs, p_perm " << permanent_prob
                  << ", p_node " << node_prob
                  << (c.hier ? ", p_bridge " : "")
                  << (c.hier ? std::to_string(bridge_prob) : "")
                  << " ..." << std::endl;
        const CampaignOut out =
            runCampaign(c, 1, permanent_prob, node_prob,
                        bridge_prob, sends, horizon);
        bool deterministic = true;
        if (c.hier) {
            const CampaignOut redo =
                runCampaign(c, 3, permanent_prob, node_prob,
                            bridge_prob, sends, horizon);
            deterministic = redo.fingerprint == out.fingerprint &&
                            redo.deadLettered == out.deadLettered &&
                            redo.watchdogFires == out.watchdogFires;
        }
        all_deterministic = all_deterministic && deterministic;
        all_accounted = all_accounted && out.accounted;
        worst_availability =
            std::min(worst_availability, out.availability);

        w.beginObject(c.key);
        w.field("injected", out.injected);
        w.field("delivered", out.delivered);
        w.field("failed", out.failed);
        w.field("dead_lettered", out.deadLettered);
        w.field("dead_retries_exhausted", out.deadRetries);
        w.field("dead_unreachable", out.deadUnreachable);
        w.field("dead_stalled", out.deadStalled);
        w.field("dead_bridge_dead", out.deadBridgeDead);
        w.field("faults_injected", out.faultsInjected);
        w.field("faults_permanent", out.faultsPermanent);
        w.field("node_faults", out.nodeFaults);
        w.field("bridge_faults", out.bridgeFaults);
        w.field("watchdog_fires", out.watchdogFires);
        w.field("epochs_audited", out.epochsAudited);
        w.field("accounted", out.accounted ? 1.0 : 0.0);
        w.field("availability", out.availability);
        w.field("residual_bandwidth", out.residualBandwidth);
        w.field("effective_buses", out.effectiveBuses);
        w.field("digest_fnv", out.fingerprint);
        w.field("deterministic", deterministic ? 1.0 : 0.0);
        w.beginArray("availability_curve");
        for (const double a : out.availabilityCurve)
            w.elementRaw(num(a));
        w.endArray();
        w.beginArray("degradation_curve");
        for (const double d : out.degradationCurve)
            w.elementRaw(num(d));
        w.endArray();
        w.endObject();
        std::cout << "campaign " << c.key << ": " << out.delivered
                  << "/" << out.injected << " delivered, "
                  << out.deadLettered << " dead-lettered, "
                  << out.epochsAudited << " epochs audited, "
                  << "availability " << out.availability
                  << ", residual bw " << out.residualBandwidth
                  << (out.accounted ? "" : " NOT ACCOUNTED")
                  << (deterministic ? "" : " NON-DETERMINISTIC")
                  << "\n";
    }
    w.endObject();

    const bool floor_holds = worst_availability >= min_availability;
    w.beginObject("availability");
    w.field("required", min_availability);
    w.field("worst", worst_availability);
    w.field("floor_holds", floor_holds ? 1.0 : 0.0);
    w.field("all_accounted", all_accounted ? 1.0 : 0.0);
    w.field("all_deterministic", all_deterministic ? 1.0 : 0.0);
    w.endObject();
    w.endObject();

    if (!path.empty()) {
        std::ofstream out(path);
        if (!out) {
            std::cerr << "bench_chaos: cannot write " << path
                      << "\n";
            return 1;
        }
        out << w.str() << "\n";
    }

    if (!all_accounted) {
        std::cerr << "bench_chaos: a campaign lost messages from"
                     " the delivery account\n";
        return 1;
    }
    if (!all_deterministic) {
        std::cerr << "bench_chaos: hier campaigns were not"
                     " byte-deterministic across shard job counts\n";
        return 1;
    }
    if (!floor_holds) {
        std::cerr << "bench_chaos: worst-campaign availability "
                  << worst_availability << " is below the "
                  << min_availability << " floor\n";
        return 1;
    }
    return 0;
}

[[noreturn]] void
usage(int code)
{
    (code == 0 ? std::cout : std::cerr)
        << "usage: bench_chaos [--fast] [--report FILE]\n"
           "                   [--min-speedup A]\n"
           "Randomized transient+permanent+node+bridge fault\n"
           "campaigns over the engine x topology grid, invariants\n"
           "audited every epoch.  --min-speedup is reused as the\n"
           "availability floor (worst campaign's delivered\n"
           "fraction).  --report writes the JSON the chaos_gate\n"
           "ctest compares against tests/data/BENCH_chaos.json.\n";
    std::exit(code);
}

} // namespace

int
main(int argc, char **argv)
{
    bool fast = false;
    std::string report_path;
    double min_availability = 0.5;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fast") {
            fast = true;
        } else if (arg == "--report" && i + 1 < argc) {
            report_path = argv[++i];
        } else if (arg == "--min-speedup" && i + 1 < argc) {
            min_availability =
                common::flagDouble("bench_chaos", arg, argv[++i]);
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage(2);
        }
    }
    return runReport(report_path, min_availability, fast);
}
