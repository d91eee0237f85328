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
 * The report (--json) holds two sections, "campaigns" and
 * "availability"; it is byte-deterministic.  --min-speedup is reused
 * as the availability floor (default 0.5: the worst campaign's
 * delivered fraction must stay above it).  The chaos_gate ctest
 * checks the --fast report against the golden
 * tests/data/BENCH_chaos.json, minus "build_type".
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "obs/json.hh"
#include "rmb/engine.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace {

using namespace rmb;
using bench::Send;

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
    bench::scheduleSends(simulator, *network, sends, 16);

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
    out.fingerprint = bench::digestFingerprint(*network);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness h(argc, argv, "E22",
                     "chaos campaigns: fault storms over the engine x"
                     " topology grid, invariants audited every epoch",
                     {.minSpeedup = 0.5});
    const bool fast = h.fast();
    const double min_availability = h.minSpeedup();
    const std::vector<Campaign> grid = {
        {"event,flat", core::EngineKind::Event, false},
        {"kernel,flat", core::EngineKind::Kernel, false},
        {"event,hier", core::EngineKind::Event, true},
        {"kernel,hier", core::EngineKind::Kernel, true},
    };
    const sim::Tick horizon = fast ? 6'000 : 20'000;

    double worst_availability = 1.0;
    bool all_accounted = true;
    bool all_deterministic = true;
    obs::JsonWriter w;
    w.beginObject();
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
    h.report().setRaw("campaigns", w.str());

    const bool floor_holds = worst_availability >= min_availability;
    obs::JsonWriter a;
    a.beginObject();
    a.field("required", min_availability);
    a.field("worst", worst_availability);
    a.field("floor_holds", floor_holds ? 1.0 : 0.0);
    a.field("all_accounted", all_accounted ? 1.0 : 0.0);
    a.field("all_deterministic", all_deterministic ? 1.0 : 0.0);
    a.endObject();
    h.report().setRaw("availability", a.str());

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
