#!/bin/sh
# Line count of the simulator's C++ code: every .cc and .hh file under
# src/ and tools/, the figure ROADMAP.md and CHANGES.md quote next to
# the performance numbers.  Counts the checked-out tree; prints one
# integer.
# Usage: scripts/loc.sh [repo-root]   (default: the script's repo)
set -e
root=${1:-$(dirname "$0")/..}
cd "$root"
find src tools -type f \( -name '*.cc' -o -name '*.hh' \) -print0 |
    xargs -0 cat | wc -l | tr -d ' '
