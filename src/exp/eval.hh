/**
 * @file
 * Point evaluation, sweep execution and report aggregation.
 *
 * runPoint() turns one PointConfig into one isolated simulation: its
 * own sim::Simulator, its own network, its own RNG substream (split
 * from the master seed at spec materialisation) - nothing shared, so
 * points can run concurrently and in any order.  Failures (invalid
 * configuration, simulated-tick timeout, runtime exception) are
 * captured in the PointResult instead of killing the sweep.
 *
 * rmbConfig(), makeNetwork() and runWorkload() are the one network
 * factory and run loop behind both sweeps and rmbsim; callers choose
 * the seeds, the VerifyLevel and the RunChoices.
 *
 * runSweep() fans a spec's points across a Runner and aggregate()
 * merges the results into one obs::RunReport whose point array is in
 * grid order regardless of completion order, so the artifact is
 * byte-identical for every --jobs value.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hh"
#include "exp/spec.hh"
#include "netbase/network.hh"
#include "obs/run_report.hh"
#include "obs/timeline.hh"
#include "rmb/config.hh"
#include "sim/random.hh"
#include "workload/driver.hh"
#include "workload/permutation.hh"
#include "workload/traffic.hh"

namespace rmb {
namespace exp {

/**
 * The RmbConfig @p pt describes, its randomness seeded by
 * @p net_seed and checked at @p verify.  Callers may adjust it
 * before makeNetwork() (rmbsim arms fault recovery for a fault plan).
 */
core::RmbConfig rmbConfig(const PointConfig &pt,
                          std::uint64_t net_seed,
                          core::VerifyLevel verify);

/**
 * Build @p pt's network over @p cfg (from rmbConfig(); its seed also
 * seeds the baselines), or return nullptr with @p error set to one
 * actionable message.  Refuses every combination a backend would
 * silently ignore: topology=hier exists only for network=rmb, and
 * engine=kernel only for the RMB ring networks (rmb, dualring, torus,
 * grid).
 */
std::unique_ptr<net::Network> makeNetwork(const PointConfig &pt,
                                          const core::RmbConfig &cfg,
                                          sim::Simulator &simulator,
                                          std::string &error);

/** The open-loop traffic pattern of @p pt over @p n nodes, or
 *  nullptr with @p error set. */
std::unique_ptr<workload::TrafficPattern>
stochasticPattern(const PointConfig &pt, net::NodeId n,
                  std::string &error);

/**
 * Sample @p network every @p period ticks until the run has passed
 * @p min_end and drained; nullptr when @p period is 0.  Series:
 * injected, delivered (per-window deltas), active_circuits; on RMB
 * rings also live_buses, segment_occupancy and dead_letters; with
 * bridges bridge_deflections, and with @p shard_series each ring's
 * injected and delivered.  Only reads counters, so the run is
 * unchanged and the series is deterministic for any --jobs.
 */
std::unique_ptr<obs::TimelineSampler>
startTimeline(net::Network &network, sim::Tick period,
              sim::Tick min_end, bool shard_series);

/** What runWorkload() ran. */
struct WorkloadRun
{
    /** The workload does not fit the network; nothing ran. */
    std::string error;
    /** The batch it injected; empty for an open loop. */
    workload::PairList pairs;
    workload::BatchResult batch;       //!< when pairs is non-empty
    workload::OpenLoopResult openLoop; //!< otherwise
    std::unique_ptr<obs::TimelineSampler> timeline;
};

/**
 * Run @p pt's workload on @p network, its randomness drawn from
 * @p rng: one batch, aborted after pt.timeout ticks, for the
 * permutation-style workloads, else an open loop over
 * stochasticPattern() whose statistics start at @p warmup and whose
 * drain stops after @p drain ticks.  The timeline is
 * startTimeline(network, @p timeline_period, ..., @p shard_series).
 */
WorkloadRun runWorkload(const PointConfig &pt, net::Network &network,
                        sim::Random &rng, sim::Tick warmup,
                        sim::Tick drain, sim::Tick timeline_period,
                        bool shard_series);

/** One completed point, as seen by a progress observer. */
struct Progress
{
    std::size_t completed = 0; //!< points finished so far
    std::size_t total = 0;     //!< points in the run
    std::size_t index = 0;     //!< grid index that just finished
    bool ok = true;            //!< did the point succeed
    std::string label;         //!< point label (may be empty)
    double wallMillis = 0.0;   //!< wall-clock cost of the point
};

/**
 * TraceSink-style observer for sweep progress.  Called serially
 * (under the runner's lock) after each point completes; wall-clock
 * timings are reported here and only here, never in artifacts, so
 * reports stay byte-identical across machines and job counts.
 */
using ProgressFn = std::function<void(const Progress &)>;

/** Outcome of one grid point. */
struct PointResult
{
    std::size_t index = 0;
    bool ok = false;
    /** Why the point failed; empty when ok. */
    std::string error;
    /** (metric name, serialised JSON value) in fixed emission
     *  order - the deterministic payload of the point. */
    std::vector<std::pair<std::string, std::string>> metrics;
    /** Serialised TimelineSampler document when the point set
     *  timeline_period, else empty (member absent from report). */
    std::string timelineJson;
};

/** Run one point in isolation; never throws on config/sim errors. */
PointResult runPoint(const PointConfig &point);

/** Everything a finished sweep produced, in grid order. */
struct SweepOutcome
{
    std::vector<PointConfig> points;
    std::vector<PointResult> results; //!< index-aligned with points
    std::size_t failures = 0;
};

/**
 * Materialise @p spec and execute every point on @p jobs workers
 * (0 = all cores).  @p progress, if set, observes completions as
 * they happen (wall-clock timings live only there).
 */
SweepOutcome runSweep(const SweepSpec &spec, unsigned jobs,
                      const ProgressFn &progress = {});

/**
 * Merge a sweep's per-point results into one RunReport: header
 * fields, the canonical spec (self-describing artifact), and a
 * "points" array in stable grid order.  Contains no wall-clock or
 * host information by design.
 */
obs::RunReport aggregate(const SweepSpec &spec,
                         const SweepOutcome &outcome);

} // namespace exp
} // namespace rmb
