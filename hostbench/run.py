#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

    python3 hostbench/run.py --workload paper-matrix|dse-cold|dse-warm \
        --seed N --seconds S --trace 0|1 [hostbench flags...]

Run from the root of a checkout.  The first run configures and builds
hostbench (and the simulator libraries it compiles from src/) into
.bench_build/hostbench; later runs only rebuild what changed.  Build
output goes to stderr, so the last line of standard output is the
benchmark's JSON result.  Flags this script does not know are passed to
the hostbench binary unchanged (see README.md).
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "hostbench-run")
BINARY = os.path.join(BUILD, "hostbench")
REFERENCE = os.path.join(HERE, "reference.tsv")
COSTS = os.path.join(HERE, "costs.tsv")


def build():
    """Configure (once) and build hostbench; exits non-zero on failure."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                # Leave no half-configured tree behind for the next run.
                if not os.path.exists(BINARY):
                    shutil.rmtree(BUILD, ignore_errors=True)
                sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = ap.parse_known_args()
    build()
    os.makedirs(SCRATCH, exist_ok=True)
    argv = [BINARY, "--workload", args.workload, "--seed", args.seed,
            "--seconds", args.seconds, "--trace", args.trace,
            "--reference", REFERENCE, "--costs", COSTS,
            "--scratch", SCRATCH] + extra
    sys.stdout.flush()
    os.execv(BINARY, argv)


if __name__ == "__main__":
    main()
