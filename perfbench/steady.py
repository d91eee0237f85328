#!/usr/bin/env python3
"""Determinism and steadiness check over repeated benchmark runs.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
                                [--repeat R] [--trace 0|1]
                                [--save FILE] [--compare FILE]

Runs perfbench/run.py once per (workload, seed, repeat), from the
repository root, with BENCHMARK.json's run_seconds.

* Determinism: every run of one seed must print the same outcome
  fingerprint and the same simulated numbers (delivered_share, both
  latency metrics and, with --trace 1, every count).  Any difference
  is a bug, not noise, and fails the check.
* Steadiness: each end-to-end metric is summarised over all runs of a
  workload as median and quartiles (statistics.quantiles, n=4).  The
  spread (Q3 - Q1) / median must stay within the metric's bound from
  BENCHMARK.json (setup_s is reported but exempt); a spread above a
  third of the bound is flagged "tight".
* --save writes the medians; --compare reads saved medians and fails
  when a median got worse than the saved one by more than its bound.

Exits 1 on any failure.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Host-time figures; every other metric is simulated and must repeat.
HOST_METRICS = {"delivered_per_host_s", "cpu_s", "setup_s", "peak_rss_mb",
                "exp.worker_busy_share", "trace_overhead",
                "hier.jobs2_wall_ratio"}


def is_simulated(name, unit):
    return name not in HOST_METRICS and unit != "s"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steady: %s seed %d failed (exit %d)" %
                 (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    match = re.search(r"fingerprint=([0-9a-f]+)", proc.stdout)
    return (match.group(1) if match else ""), result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    saved = {}
    if args.compare:
        with open(args.compare) as f:
            saved = json.load(f)

    failures = []
    medians = {}
    for wl in workloads:
        values = {}
        by_seed = {}
        for seed in seeds:
            for _ in range(args.repeat):
                fp, result = run_once(wl, seed, bench["run_seconds"],
                                      args.trace)
                if not result["correct"]:
                    failures.append("%s seed %d: incorrect" % (wl, seed))
                sim = {k: v["value"] for k, v in result["metrics"].items()
                       if is_simulated(k, v["unit"])}
                first = by_seed.setdefault(seed, (fp, sim))
                if (fp, sim) != first:
                    failures.append("%s seed %d: outcome differs between "
                                    "runs of one seed" % (wl, seed))
                for k, v in result["metrics"].items():
                    values.setdefault(k, []).append(v["value"])
        print("%s (%d runs)" % (wl, len(seeds) * args.repeat))
        medians[wl] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            medians[wl][name] = med
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = spec.get(name, {}).get("bound")
            note = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    note = "OVER BOUND %.3f" % bound
                    failures.append("%s %s spread %.4f > bound %.3f" %
                                    (wl, name, spread, bound))
                elif spread > bound / 3:
                    note = "tight (bound/3 = %.4f)" % (bound / 3)
            old = saved.get(wl, {}).get(name)
            if bound is not None and old:
                worse = (med - old) / old
                if spec[name]["better"] == "higher":
                    worse = -worse
                if worse > bound:
                    note += " median %.4g worse than saved %.4g" % (med, old)
                    failures.append("%s %s median worse by %.3f" %
                                    (wl, name, worse))
            print("  %-34s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %.4f %s" % (name, med, q1, q3, spread, note))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1, sort_keys=True)
    for f in failures:
        print("steady: FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
