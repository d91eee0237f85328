#!/bin/sh
# Gate for the benches that check themselves: run a bench's report
# (--fast --json FILE --min-speedup X) and compare it against its
# checked-in baseline with tools/sweep compare.  Three benches are
# gated this way:
#   - bench_microperf (the bench_gate ctest): the kernel engine's
#     throughput over the event engine, floor 10x on the default
#     16-node, 4-bus config, plus the profiler-overhead bound;
#     baseline tests/data/BENCH_microperf.json;
#   - bench_hierarchy (the hier_gate ctest): the sharded hier
#     executor's 4-thread self-speedup at 131072 nodes, floor 1.5x
#     where the process may run on >= 4 CPUs, plus the outcome
#     digests and their determinism across shard job counts;
#     baseline tests/data/BENCH_hierarchy.json;
#   - bench_chaos (the chaos_gate ctest): the fault campaigns'
#     delivery accounts and digests, with --min-speedup reused as the
#     0.5 availability floor; baseline tests/data/BENCH_chaos.json.
# Two ways to fail, both load-bearing:
#   - the bench exits non-zero when its measured speedup drops
#     below the floor handed to it;
#   - sweep compare exits non-zero when a gated baseline leaf (the
#     floor indicators, digests, delivery counts, bound indicators)
#     is missing or out of tolerance.
# Around the bench the script prints the hypervisor's steal time
# (the 8th number of /proc/stat's cpu line, in jiffies) where that
# file is readable: a host-time floor that fails while the VM lost
# its CPUs says so next to the measured speedup.
# Usage: scripts/check_bench.sh [bench sweep baseline.json [min-speedup]]
# With no arguments, bench_microperf and sweep are taken from ./build
# and the baseline from tests/data (the developer workflow; the
# ctests pass explicit paths).  The optional 4th argument is the
# floor handed to the bench (default 10, bench_microperf's).
set -e

min_speedup=10
if [ $# -ge 3 ]; then
    bench="$1"
    sweep="$2"
    baseline="$3"
    [ $# -ge 4 ] && min_speedup="$4"
else
    cd "$(dirname "$0")/.."
    bench=build/bench/bench_microperf
    sweep=build/tools/sweep
    baseline=tests/data/BENCH_microperf.json
    if [ ! -x "$bench" ] || [ ! -x "$sweep" ]; then
        echo "check_bench: build bench_microperf and sweep first" \
            "(cmake --build build)" >&2
        exit 1
    fi
fi

fresh="${TMPDIR:-/tmp}/bench_microperf_fresh_$$.json"
trap 'rm -f "$fresh"' EXIT

steal_jiffies() {
    [ -r /proc/stat ] && awk '$1 == "cpu" { print $9; exit }' /proc/stat
}

steal_before=$(steal_jiffies || true)
status=0
"$bench" --fast --json "$fresh" --min-speedup "$min_speedup" ||
    status=$?
steal_after=$(steal_jiffies || true)
if [ -n "$steal_before" ] && [ -n "$steal_after" ]; then
    echo "check_bench: hypervisor steal during the bench:" \
        "$((steal_after - steal_before)) jiffies"
fi
[ "$status" -eq 0 ] || exit "$status"
exec "$sweep" compare "$fresh" "$baseline"
