#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 hostbench/test_hostbench.py [-v]

Run from anywhere; builds hostbench through run.py when needed.  Each
case runs a short, reduced form of a workload (--kernels, --max-rounds),
so the whole file takes a few minutes once the build exists.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, *extra, seed=0, cwd=ROOT):
    """Run one workload; return (exit code, stdout lines)."""
    out = subprocess.run(
        [sys.executable, os.path.join(cwd, "hostbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)] + list(extra),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return out.returncode, out.stdout.splitlines()


def result(workload, trace, *extra, seed=0):
    code, lines = bench(workload, trace, *extra, seed=seed)
    assert code == 0, "exit %d: %s" % (code, "\n".join(lines[-5:]))
    return json.loads(lines[-1]), lines


class MetricNames(unittest.TestCase):
    def test_every_printed_metric_is_declared(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    res, _ = result(workload, trace, "--kernels", "2",
                                    "--max-rounds", "2")
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    printed = {k: v["unit"]
                               for k, v in res["metrics"].items()}
                    self.assertEqual(printed, declared)
                    if trace == 0:
                        for name, v in res["metrics"].items():
                            self.assertGreater(v["value"], 0, name)


class PlantedDrift(unittest.TestCase):
    def test_one_wrong_reference_hash_fails_exactly_one_cell(self):
        for workload, extra, cells in (
                ("paper-matrix", ["--kernels", "2"], 10),
                ("dse-cold", [], 120),
                ("dse-warm", [], 120)):
            with self.subTest(workload=workload):
                res, lines = result(workload, 0, "--max-rounds", "1",
                                    "--plant-drift", "3", *extra)
                self.assertFalse(res["correct"])
                self.assertEqual(res["attempted"], cells)
                self.assertEqual(res["failed"], 1)
                self.assertTrue(any("drift" in l for l in lines))


class TracedHashes(unittest.TestCase):
    def test_traced_and_untraced_rounds_give_identical_hashes(self):
        # The binary fails any traced round whose per-cell hashes (or
        # sweep document) differ from its untraced twin's.
        for workload, cells in (("paper-matrix", 2 * 15),
                                ("dse-cold", 2 * 120)):
            with self.subTest(workload=workload):
                res, lines = result(workload, 1, "--kernels", "3",
                                    "--max-rounds", "2")
                self.assertTrue(res["correct"])
                self.assertEqual(res["attempted"], cells)
                self.assertTrue(any("1 untraced + 1 traced" in l
                                    for l in lines))


class Seeds(unittest.TestCase):
    def inputs(self, lines):
        return next(l for l in lines if l.startswith("inputs:")).split()[1:]

    def test_seed_picks_one_variant_per_kernel(self):
        def inputs(seed):
            res, lines = result("paper-matrix", 0, "--kernels", "6",
                                "--max-rounds", "1", seed=seed)
            self.assertTrue(res["correct"])
            return self.inputs(lines)

        def kernels(programs):
            return sorted(w.rsplit(".", 1)[0] for w in programs)

        # The default seed is the .0 pinned set.
        inputs0 = inputs(0)
        self.assertEqual(len(inputs0), 6)
        self.assertTrue(all(w.endswith(".0") for w in inputs0))
        inputs1 = inputs(1)
        self.assertEqual(kernels(inputs1), kernels(inputs0))
        self.assertNotEqual(sorted(inputs1), sorted(inputs0))
        self.assertEqual(inputs(1), inputs1)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "hostbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("paper-matrix", 0, cwd=tmp)
            self.assertNotEqual(code, 0)
            self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main()
