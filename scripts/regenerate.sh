#!/bin/sh
# Rebuild everything and regenerate the result files (untracked, in
# .gitignore):
#   test_output.txt  - full ctest log
#   bench_output.txt - every experiment's regenerated tables: each
#                      bench target bench/CMakeLists.txt defines (not
#                      a stale binary left in build/bench), then each
#                      sweep spec under bench/specs through tools/sweep
# Usage: scripts/regenerate.sh [--fast]
# --fast passes --fast to the benches and runs each spec at its
# golden's sizes: the base overrides its spec_golden line in
# tests/CMakeLists.txt gives (fewer replicas, shorter durations).
# Without it the specs run at the sizes they declare.
set -e
cd "$(dirname "$0")/.."
FAST=""
[ "$1" = "--fast" ] && FAST="--fast"
jobs="${NPROC:-$(nproc)}"
ctest_jobs="${CTEST_PARALLEL_LEVEL:-$jobs}"
cmake -B build
cmake --build build -j "$jobs"
ctest --test-dir build -j "$ctest_jobs" 2>&1 | tee test_output.txt
(
    for b in $(sed -n 's/^rmb_add_bench(\(bench_[a-z_]*\) .*/\1/p' \
        bench/CMakeLists.txt); do
        echo "### build/bench/$b"; "build/bench/$b" $FAST; echo
    done
    for s in bench/specs/*.json; do
        flags=""
        [ -n "$FAST" ] && flags=$(sed -n \
            "s/^spec_golden($(basename "$s" .json) \(.*\))\$/\1/p" \
            tests/CMakeLists.txt)
        echo "### $s $flags"
        # A spec whose points fail by design (blocking_policies'
        # deadlocking Wait runs) still prints its tables; exit 1.
        build/tools/sweep run "$s" --quiet $flags ||
            echo "(sweep exited $?)"
        echo
    done
) 2>&1 | tee bench_output.txt
