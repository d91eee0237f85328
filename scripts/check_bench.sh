#!/bin/sh
# Run one bench command, report the hypervisor's steal time around
# it on stderr (the 8th number of /proc/stat's cpu line, in jiffies,
# where that file is readable), and exit with the bench's status.
# The gate benches check their own floors through their exit code,
# and a host-time floor can fail because the VM lost its CPUs: the
# bench_gate and hier_gate ctests run bench_microperf and
# bench_hierarchy through this script so a failing floor shows the
# steal next to it.  Their goldens under tests/data pin the rest of
# each report.
# Usage: scripts/check_bench.sh <bench> [flags...]
#   e.g. scripts/check_bench.sh build/bench/bench_microperf --fast \
#            --json /tmp/microperf.json
if [ $# -lt 1 ]; then
    echo "usage: check_bench.sh <bench> [flags...]" >&2
    exit 2
fi

steal_jiffies() {
    [ -r /proc/stat ] && awk '$1 == "cpu" { print $9; exit }' /proc/stat
}

steal_before=$(steal_jiffies || true)
status=0
"$@" || status=$?
steal_after=$(steal_jiffies || true)
if [ -n "$steal_before" ] && [ -n "$steal_after" ]; then
    echo "check_bench: hypervisor steal during $1:" \
        "$((steal_after - steal_before)) jiffies" >&2
fi
exit "$status"
