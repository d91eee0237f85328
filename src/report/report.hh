/**
 * @file
 * Machine-readable and visual run reports.
 *
 * - statsToJson(): the run facts a metrics snapshot lacks (the
 *   network's name, an RMB's bus count, segment utilization and
 *   faulted segments), as the "stats" block of rmbsim's report.
 * - utilizationHeatmap(): render the RMB's per-segment
 *   time-weighted utilization as an ASCII heatmap (gaps across,
 *   levels down) - the static counterpart of the
 *   permutation_route example's live view.
 */

#pragma once

#include <iosfwd>
#include <string>

#include "netbase/network.hh"
#include "rmb/engine.hh"

namespace rmb {
namespace report {

/**
 * Serialize what @p network's metrics snapshot does not carry, as
 * one JSON object: the network's name, plus an "rmb" sub-object for
 * RMB engines (any core::Engine backend) with the bus count, the
 * average segment utilization at @p now and the faulted-segment
 * count.  Every counter, sampler and level is left to the snapshot,
 * which run reports carry once, under "metrics".
 */
std::string statsToJson(const net::Network &network, sim::Tick now);

/**
 * Render the utilization heatmap of an RMB to @p os, one column per
 * fault-domain gap (a composed shape's every ring), via the
 * backend-generic segment census (works for any engine).  A gap with
 * fewer levels than the tallest is blank above its top.
 */
void utilizationHeatmap(std::ostream &os,
                        const core::Engine &engine, sim::Tick now);

} // namespace report
} // namespace rmb
