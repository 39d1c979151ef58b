#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They build pmcf_bench like run.py does, run every workload at tiny scale
(seconds each), and check that every metric BENCHMARK.json names is emitted
with its unit, that the output check rejects a perturbed arc flow, and that
the benchmark refuses to run without the library sources or above the
available cpus.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["dense_cold", "robust_tier", "resolve_churn", "batch_fanout"]


def run(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, RUN] + list(args), cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=900)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def tiny(self, workload, trace):
        p = run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
                "--scale", "tiny")
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["report"]
        return result, report

    def test_every_workload_emits_every_metric_with_its_unit(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertLessEqual(set(names), set(WORKLOADS))
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, report = self.tiny(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))
                    self.assertEqual(report["metrics"]["failed_share"]["value"], 0)
                    self.assertLessEqual(
                        report["host"]["clients"] + report["host"]["pool_threads"] - 1,
                        report["host"]["nproc"])
                    for key in ("build_type", "pmcf_simd", "commit"):
                        self.assertIn(key, report["host"])

    def test_output_check_rejects_a_perturbed_arc_flow(self):
        p = run("--selftest-check")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr[-2000:])
        self.assertIn("every perturbed arc flow was rejected", p.stdout)

    def test_thread_budget_above_nproc_is_refused(self):
        over = str(len(os.sched_getaffinity(0)) + 1)
        p = run("--workload", "dense_cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                "--scale", "tiny", "--threads", over)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)

    def test_fails_without_the_library_sources(self):
        build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        bare = os.path.join(ROOT if not os.path.isabs(build) else "", build, "bare-test")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        try:
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense_cold",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
