#include "rmb/config.hh"

#include <cmath>
#include <sstream>

namespace rmb {
namespace core {

namespace {

template <typename... Args>
std::string
msg(Args &&...args)
{
    std::ostringstream out;
    (out << ... << std::forward<Args>(args));
    return out.str();
}

} // namespace

std::vector<std::string>
RmbConfig::validate() const
{
    std::vector<std::string> problems;

    if (numNodes < 2) {
        problems.push_back(msg(
            "numNodes=", numNodes,
            ": the ring needs at least two nodes"));
    }
    if (numBuses < 1) {
        problems.push_back(msg(
            "numBuses=", numBuses,
            ": the grid needs at least one bus level (k >= 1)"));
    }
    if (headerHopDelay < 1 || ackHopDelay < 1 || flitDelay < 1) {
        problems.push_back(msg(
            "hop delays must all be >= 1 tick (headerHopDelay=",
            headerHopDelay, ", ackHopDelay=", ackHopDelay,
            ", flitDelay=", flitDelay, ")"));
    }
    if (cyclePeriodMin < 2) {
        problems.push_back(msg(
            "cyclePeriodMin=", cyclePeriodMin,
            ": the make-before-break break step fires half a period"
            " later, so periods below 2 ticks cannot be split"));
    }
    if (cyclePeriodMin > cyclePeriodMax) {
        problems.push_back(msg(
            "cycle period range [", cyclePeriodMin, ", ",
            cyclePeriodMax, "] is inverted (min > max)"));
    }
    if (detailedFlits && dackWindow == 0) {
        problems.push_back(
            "dackWindow=0 with detailedFlits: the first data flit"
            " could never depart; use dackWindow >= 1 (or disable"
            " detailedFlits)");
    }
    if (retryBackoffMin < 1) {
        problems.push_back(msg(
            "retryBackoffMin=", retryBackoffMin,
            ": a zero backoff re-injects in the same tick and"
            " livelocks colliding senders"));
    }
    if (retryBackoffMin > retryBackoffMax) {
        problems.push_back(msg(
            "retry backoff range [", retryBackoffMin, ", ",
            retryBackoffMax, "] is inverted (min > max)"));
    }
    if (retryBackoffCap < 2) {
        problems.push_back(msg(
            "retryBackoffCap=", retryBackoffCap,
            ": a backoff at the cap is redrawn from [cap/2, cap],"
            " so the cap must be >= 2"));
    }
    if (sendPorts < 1 || receivePorts < 1) {
        problems.push_back(msg(
            "sendPorts=", sendPorts, ", receivePorts=", receivePorts,
            ": every PE needs at least one port of each kind"));
    }
    if (headerTimeout > 0 &&
        blocking == BlockingPolicy::NackRetry) {
        problems.push_back(msg(
            "headerTimeout=", headerTimeout,
            " has no effect under BlockingPolicy::NackRetry; set"
            " blocking=Wait or drop the timeout"));
    }
    if (faultMtbf > 0 && !transientFaults) {
        problems.push_back(msg(
            "faultMtbf=", faultMtbf,
            " without transientFaults: the fault schedule hits"
            " occupied segments, which needs the transient-fault"
            " recovery path; set transientFaults=true"));
    }
    if (faultMtbf > 0 && faultMttrMin < 1) {
        problems.push_back(
            "faultMttrMin=0 with a fault schedule: a zero repair"
            " delay repairs the segment in the injection tick; use"
            " faultMttrMin >= 1");
    }
    if (faultMttrMin > faultMttrMax) {
        problems.push_back(msg(
            "fault MTTR range [", faultMttrMin, ", ", faultMttrMax,
            "] is inverted (min > max)"));
    }
    const auto checkProb = [&](double p, const char *name) {
        if (std::isnan(p)) {
            problems.push_back(msg(
                name, " is NaN: a fault probability must be a real"
                " number in [0, 1]"));
        } else if (p < 0.0 || p > 1.0) {
            problems.push_back(msg(
                name, "=", p,
                " is outside [0, 1]: fault probabilities are"
                " per-scheduled-fault Bernoulli parameters"));
        }
    };
    checkProb(faultPermanentProb, "faultPermanentProb");
    checkProb(faultNodeProb, "faultNodeProb");
    checkProb(faultBridgeProb, "faultBridgeProb");
    if (faultBridgeProb > 0.0 && topology != TopologyKind::Hier) {
        problems.push_back(msg(
            "faultBridgeProb=", faultBridgeProb,
            " needs bridges to fail: set topology=hier or drop the"
            " option"));
    }
    if (watchdogTimeout > 0 &&
        watchdogTimeout < headerHopDelay + ackHopDelay) {
        problems.push_back(msg(
            "watchdogTimeout=", watchdogTimeout,
            " is below one header+ack hop (",
            headerHopDelay + ackHopDelay,
            " ticks); every healthy bus would be severed before it"
            " could make its first hop"));
    }

    // Engine-compatibility: the cycle kernel refuses, with an
    // actionable message, every option it does not model - silent
    // fallback to the event engine would invalidate perf numbers and
    // differential baselines alike.
    if (engine == EngineKind::Kernel) {
        if (detailedFlits) {
            problems.push_back(
                "engine=kernel does not model per-flit Dack flow"
                " control (detailedFlits); use the closed-form"
                " pipeline (detailedFlits=false) or engine=event");
        }
        if (blocking == BlockingPolicy::Wait) {
            problems.push_back(
                "engine=kernel only implements"
                " BlockingPolicy::NackRetry; Wait-mode header"
                " parking (and its deadlock modes) needs"
                " engine=event");
        }
    }

    // Hierarchy: the composed topology checks its own geometry and
    // refuses the options its executor cannot honour across shards.
    if (topology == TopologyKind::Hier) {
        if (localRings < 1) {
            problems.push_back(msg(
                "localRings=", localRings,
                ": a hierarchy needs at least one local ring"));
        }
        if (localRings >= 1 && numNodes % localRings != 0) {
            problems.push_back(msg(
                "numNodes=", numNodes, " is not divisible by"
                " localRings=", localRings,
                ": every local ring must get the same node count"));
        }
        if (localRings >= 1 && numNodes % localRings == 0 &&
            numNodes / localRings < 2) {
            problems.push_back(msg(
                "numNodes=", numNodes, " over localRings=",
                localRings, " leaves ", numNodes / localRings,
                " node(s) per local ring; each ring needs >= 2"));
        }
        if (bridgeLatency < 1) {
            problems.push_back(msg(
                "bridgeLatency=", bridgeLatency,
                ": a zero-latency bridge leaves the parallel executor"
                " no lookahead window; use bridgeLatency >= 1"));
        }
        if (bridgeBuffer < 1) {
            problems.push_back(msg(
                "bridgeBuffer=", bridgeBuffer,
                ": a bufferless bridge deflects every arrival; use"
                " bridgeBuffer >= 1"));
        }
        if (detailedFlits) {
            problems.push_back(
                "topology=hier does not model per-flit Dack flow"
                " control across bridges (detailedFlits); use the"
                " closed-form pipeline (detailedFlits=false) or"
                " topology=flat");
        }
        if (blocking == BlockingPolicy::Wait) {
            problems.push_back(
                "topology=hier only implements"
                " BlockingPolicy::NackRetry: bridge deflection rides"
                " the Nack/backoff machinery, which Wait-mode parking"
                " bypasses; use topology=flat for Wait studies");
        }
    } else {
        if (globalBuses != 0) {
            problems.push_back(msg(
                "globalBuses=", globalBuses,
                " has no effect under topology=flat; set"
                " topology=hier or drop the option"));
        }
    }
    return problems;
}

const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
    case EngineKind::Event:
        return "event";
    case EngineKind::Kernel:
        return "kernel";
    }
    return "?";
}

} // namespace core
} // namespace rmb
