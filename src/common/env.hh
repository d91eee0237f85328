/**
 * @file
 * The project's only sanctioned environment-variable reads.
 *
 * Reading the environment from simulation code is a determinism
 * leak: two runs of the same binary with the same flags could
 * diverge on state that appears in no RunReport.  The repo therefore
 * funnels every read through this header, and rmblint's `env-hook`
 * check (docs/LINT.md) forbids std::getenv everywhere except the
 * implementation file behind it.
 *
 * Two call shapes are allowed:
 *
 *  - mutationHook(name): the RMB_*_MUTATE seeded-bug probes.  Each
 *    hook deliberately breaks one invariant so a WILL_FAIL CTest can
 *    prove the surrounding harness catches the breakage.  Names must
 *    be registered in kMutationHooks below; rmblint cross-checks the
 *    literal at every call site.
 *  - envFlag(name): bench/tools conveniences (RMB_PROF_DUMP).
 *    Forbidden under src/ - a library that changes behaviour on an
 *    env var would leak host state into results.
 */

#pragma once

#include <cstddef>

namespace rmb {
namespace common {

/**
 * The registered seeded-bug hooks.  Adding one here is the whole
 * registration step; rmblint reads this list's mirror in
 * src/lint/checks.cc, so extend both (the lint_test pins them equal
 * in spirit: every hook referenced from code must be registered).
 */
inline constexpr const char *kMutationHooks[] = {
    "RMB_KERNEL_MUTATE",  //!< kernel delivers multi-hop legs early
    "RMB_HIER_MUTATE",    //!< hier drops the bridge hop from paths
    "RMB_DEGRADE_MUTATE", //!< supervisor fires on healthy traffic
};

inline constexpr std::size_t kNumMutationHooks =
    sizeof(kMutationHooks) / sizeof(kMutationHooks[0]);

/**
 * True iff the registered seeded-bug hook @p name is set to a
 * non-empty value other than "0".  Panics (internal bug) when
 * @p name is not in kMutationHooks: an unregistered hook would be
 * invisible to the lint's allowlist and to the docs.
 */
bool mutationHook(const char *name);

/**
 * True iff environment variable @p name is set to a non-empty value
 * other than "0".  For bench/tools conveniences only; rmblint
 * rejects calls from src/ modules.
 */
bool envFlag(const char *name);

} // namespace common
} // namespace rmb
