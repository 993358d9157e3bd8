#!/usr/bin/env python3
"""The benchmark's own tests (short mode).

    python3 perfbench/test_perfbench.py

Runs every workload for one second, untraced and traced, and checks that
the result line carries exactly the metrics BENCHMARK.json names for that
mode, each with its unit and a finite value, that every output matched its
reference, and that the bit-flip self-check fired. Also checks that the
benchmark refuses to run, without printing a result, when the library
sources are missing.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(root, workload, trace, seconds=1):
    cmd = ["python3", os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class ShortRun(unittest.TestCase):
    spec = load_spec()

    def check_workload(self, workload, trace):
        proc = run_bench(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        context = json.loads(lines[-2])["context"]
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(context["selfcheck_detected"])
        self.assertEqual(context["wrong"], 0)

        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        if trace:
            self.assertTrue(os.path.isfile(context["trace_file"]))
        return result

    def test_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, ["allreduce_8k", "allreduce_1m",
                                 "tenants_lossy"])
        errors = {}
        for workload in names:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    metrics = self.check_workload(workload, trace)["metrics"]
                    if not trace:
                        errors[workload] = metrics["rel_l2_error"]["value"]
        # FPISA-A loses mass to overwrites; the full variant only rounds.
        self.assertGreater(errors["allreduce_8k"], 1e-3)
        self.assertLess(errors["tenants_lossy"], 1e-5)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(tmp, "allreduce_8k", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    sys.exit(unittest.main())
