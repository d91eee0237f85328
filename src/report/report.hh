/**
 * @file
 * Machine-readable and visual run reports.
 *
 * - statsToJson(): serialize a network's aggregate statistics (plus
 *   RMB-specific counters when applicable) as a JSON object, for
 *   scripting around rmbsim and the benches.
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
 * Serialize @p network's statistics as a single JSON object.
 * Always includes the common counters; adds a "rmb" sub-object for
 * RMB engines (any core::Engine backend).  NaNs (empty stats) are
 * emitted as null.  The metrics registry is not repeated here: run
 * reports carry its snapshot once, under "metrics".
 */
std::string statsToJson(const net::Network &network, sim::Tick now);

/**
 * Render the N x k utilization heatmap of an RMB to @p os, via the
 * backend-generic segment census (works for any engine).
 */
void utilizationHeatmap(std::ostream &os,
                        const core::Engine &engine, sim::Tick now);

} // namespace report
} // namespace rmb
