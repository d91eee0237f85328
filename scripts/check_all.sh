#!/bin/sh
# One-button pre-merge gate: run every check this repo ships, in
# cheapest-first order so the fast failures fire before the slow
# sanitizer rebuilds.
#   1. default build + full tier-1 ctest suite (the perf floors and
#      the profiler-overhead bound run there, as bench_gate and
#      hier_gate)
#   2. check_lint.sh     - rmblint over the whole tree
#   3. check_tidy.sh     - clang-tidy over the protocol core
#                          (skips cleanly when no binary, exit 77)
#   4. check_sanitizers.sh - ASan/UBSan suite + chaos soak
#   5. check_tsan.sh     - TSan over the threaded surface
# Job counts honour the environment instead of hard-coding nproc:
#   NPROC                - build parallelism   (default: nproc)
#   CTEST_PARALLEL_LEVEL - test parallelism    (default: NPROC)
# Usage: scripts/check_all.sh
set -e
cd "$(dirname "$0")/.."
jobs="${NPROC:-$(nproc)}"
ctest_jobs="${CTEST_PARALLEL_LEVEL:-$jobs}"

echo "== check_all: default build + tier-1 suite =="
cmake -B build -S .
cmake --build build -j "$jobs"
(cd build && ctest --output-on-failure -j "$ctest_jobs")

echo "== check_all: rmblint =="
scripts/check_lint.sh

echo "== check_all: clang-tidy =="
if scripts/check_tidy.sh; then
    :
else
    status=$?
    # 77 is the CTest SKIP_RETURN_CODE: no clang-tidy in this
    # environment.  Anything else is a real finding.
    [ "$status" -eq 77 ] || exit "$status"
fi

echo "== check_all: ASan/UBSan =="
scripts/check_sanitizers.sh

echo "== check_all: TSan =="
scripts/check_tsan.sh

echo "check_all: all gates green"
