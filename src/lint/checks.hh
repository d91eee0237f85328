/**
 * @file
 * rmblint's project-specific check registry.
 *
 * Four house rules plus header hygiene, each independently
 * selectable and suppressible with `// rmblint:allow(<check>)`
 * (docs/LINT.md is the catalog):
 *
 *  - determinism-hazard: iteration over std::unordered_map /
 *    std::unordered_set state feeding anything observable, plus
 *    wall-clock / libc-RNG / pointer-order constructs anywhere
 *    outside src/obs/prof.* (the one knowingly host-time module).
 *  - layering: the module DAG over the #include graph; back-edges
 *    and file-level include cycles are reported with the chain.
 *  - env-hook: std::getenv only inside common/env.cc; mutationHook
 *    call sites must name a registered RMB_*_MUTATE hook; envFlag
 *    is for bench/tools/tests, never src/.
 *  - metric-name: registry metric literals must follow the
 *    rmb.* / hier.* / net.* / shard<i>.* naming and be registered
 *    at exactly one call site; timeline series names are lowercase
 *    dotted words.
 *  - header-guard: every header uses #pragma once, never #ifndef.
 *
 * Checks run over a pre-lexed file set, so unit tests feed
 * in-memory sources and the CLI feeds the real tree - same code
 * path, no filesystem coupling.
 */

#pragma once

#include <set>
#include <string>
#include <vector>

#include "lint/source.hh"

namespace rmb {
namespace lint {

struct Finding
{
    std::string check;
    std::string file;
    int line = 0;
    std::string message;
};

/** All check names, in canonical (registration) order. */
std::vector<std::string> checkNames();

/** One-line description of @p check ("" for unknown names). */
std::string checkDescription(const std::string &check);

/**
 * Run the @p enabled checks (empty = all) over @p files.  Findings
 * arrive sorted by (file, line, check) with inline suppressions
 * already applied.
 */
std::vector<Finding>
runChecks(const std::vector<SourceFile> &files,
          const std::set<std::string> &enabled);

/** Serialise findings as the rmblint JSON document. */
std::string findingsToJson(const std::vector<Finding> &findings);

} // namespace lint
} // namespace rmb
