#!/bin/sh
# Build the tsan CMake preset and run the *threaded* part of the
# suite - the experiment engine (exp::Runner thread pool, the sweep
# CLI's parallel runs, progress/eval reporting) - under
# ThreadSanitizer.  Any race aborts the run.
#
# Job counts honour the environment instead of hard-coding nproc:
#   NPROC                - build parallelism   (default: nproc)
#   CTEST_PARALLEL_LEVEL - test parallelism    (default: NPROC)
# Usage: scripts/check_tsan.sh [extra ctest args...]
set -e
cd "$(dirname "$0")/.."
jobs="${NPROC:-$(nproc)}"
ctest_jobs="${CTEST_PARALLEL_LEVEL:-$jobs}"
cmake --preset tsan
cmake --build --preset tsan -j "$jobs"
# The threaded surface: exp unit tests, engine determinism under
# worker pools, the sweep CLI end-to-end targets (which spin up
# 1..3 worker threads each), and the chaos campaign runs - the
# rmbsim_chaos_* pair drives the sharded hier engine with --jobs 3
# (shard worker threads + fault forwarding across shard queues)
# while permanent node/bridge faults and the delivery supervisor
# churn underneath, so cross-shard rescue is raced under TSan too.
# hier_test runs the sharded executor at 1, 2 and 4 shard threads:
# each block's thread writes its shards' next-event ticks, counter
# tallies and outboxes, and the parent's window barrier reads them.
TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+ $TSAN_OPTIONS}" \
    ctest --preset tsan -j "$ctest_jobs" \
        -R 'exp_test|determinism_test|hier_test|sweep_|fault_sweep_|rmbsim_chaos_|chaos_gate' \
        "$@"
