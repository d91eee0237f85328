#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles ../src) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later calls only re-check the build.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.  Exits non-zero, without a result, when the
sources are missing, the build fails or a correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_ = ["cmake", "--build", out, "--target", "perfbench",
                "-j", jobs]
    for step in (configure, compile_):
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
