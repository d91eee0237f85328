#!/bin/sh
# Line coverage of the simulator's C++ code (every file under src/ and
# tools/, the tree scripts/loc.sh counts) under the tier-1 suite.
#
# Configures an -O0 --coverage build in build-coverage/, runs ctest
# there and prints "covered / total executable lines", read from
# gcov's JSON output (gcov ships with GCC; python3 sums it).  A line
# counts once however many translation units compile it (a header),
# and is covered when any of them ran it; objects no test ran count
# as all uncovered.
#
# The host-time gates (bench_gate, hier_gate, chaos_gate) are left
# out: they time the host, an -O0 build misses their floors, and they
# add no line the other tests leave unrun.  The tier-1 build runs them
# as before.
#
# Job counts honour the environment instead of hard-coding nproc:
#   NPROC                - build parallelism   (default: nproc)
#   CTEST_PARALLEL_LEVEL - test parallelism    (default: NPROC)
# Usage: scripts/coverage.sh [extra ctest args...]
set -e
cd "$(dirname "$0")/.."
root=$(pwd)
dir="$root/build-coverage"
jobs="${NPROC:-$(nproc)}"
ctest_jobs="${CTEST_PARALLEL_LEVEL:-$jobs}"
gates='^(bench_gate|hier_gate|chaos_gate)$'

cmake -S . -B "$dir" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-O0 --coverage" \
    -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "$dir" -j "$jobs"
# Counts from an earlier run would add up with this one's.
find "$dir" -name '*.gcda' -delete

echo "coverage: running ctest without the host-time gates" \
     "(bench_gate, hier_gate, chaos_gate)"
status=0
(cd "$dir" && ctest -j "$ctest_jobs" -E "$gates" "$@") || status=$?
if [ "$status" -ne 0 ]; then
    echo "coverage: ctest failed (exit $status); the figure below" \
         "covers the tests that ran"
fi

cd "$dir"
find . -name '*.gcno' -print0 |
    xargs -0 gcov --stdout --json-format 2>/dev/null |
    python3 -c '
import json, os, sys

root = sys.argv[1]
prefixes = tuple(os.path.join(root, d) + os.sep for d in ("src", "tools"))
lines = {}
text = sys.stdin.read()
decoder = json.JSONDecoder()
pos = 0
while True:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos == len(text):
        break
    doc, pos = decoder.raw_decode(text, pos)
    cwd = doc.get("current_working_directory", "")
    for f in doc["files"]:
        path = os.path.normpath(os.path.join(cwd, f["file"]))
        if not path.startswith(prefixes):
            continue
        for line in f["lines"]:
            key = (path, line["line_number"])
            lines[key] = lines.get(key, False) or line["count"] > 0
total = len(lines)
covered = sum(lines.values())
share = 100.0 * covered / total if total else 0.0
print(f"coverage: {covered} / {total} executable lines of src/ + tools/"
      f" ({share:.1f}%)")
' "$root"
exit "$status"
