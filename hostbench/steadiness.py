#!/usr/bin/env python3
"""Steadiness reporter: run each workload N times and report spreads.

    python3 hostbench/steadiness.py [--runs 10] [--seconds S]
        [--workloads paper-matrix,dse-cold] [--first-seed 1]

Run from the root of a checkout.  Each run uses another seed (first-seed,
first-seed + 1, ...).  For every end-to-end metric in BENCHMARK.json it
prints the median, the quartiles (statistics.quantiles(values, n=4)) and
the relative spread (Q3 - Q1) / median next to the metric's bound, and
flags a metric whose spread exceeds its bound ("OVER BOUND"), a tenth
("noisy") or a third of its bound ("above bound/3").
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: incorrect run: %s" % (workload, seed, result))
    return result["metrics"]


def report(workload, runs, metrics):
    print("\n%s  (%d runs)" % (workload, len(runs)))
    print("  %-16s %12s %12s %12s %8s %6s  %s"
          % ("metric", "median", "q1", "q3", "spread", "bound", "flag"))
    for m in metrics:
        values = [r[m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "ok"
        if spread > m["bound"]:
            flag = "OVER BOUND"
        elif spread > 0.1:
            flag = "noisy"
        elif spread > m["bound"] / 3:
            flag = "above bound/3"
        print("  %-16s %12.6g %12.6g %12.6g %8.4f %6.3g  %s"
              % (m["name"], med, q1, q3, spread, m["bound"], flag))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            runs.append(run_once(bench["command"], workload,
                                 args.first_seed + i, args.seconds))
            print("  %s run %d/%d done" % (workload, i + 1, args.runs),
                  file=sys.stderr)
        report(workload, runs, bench["end_to_end"])


if __name__ == "__main__":
    main()
