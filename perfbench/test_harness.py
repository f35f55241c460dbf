#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark harness.

    python3 perfbench/test_harness.py

Builds perfbench like run.py does, then runs every workload for about
a second on tiny inputs and checks that
  - the result line parses and has exactly the keys correct,
    attempted, failed and metrics;
  - every metric BENCHMARK.json names is emitted with its unit, for
    --trace 0 (end to end) and --trace 1 (per layer);
  - a clean run reports no failures, and a corpus with one corrupted
    trace reports failed > 0 and ok_ratio < 1;
  - run.py fails, printing no result, in a directory that holds only
    BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = ["--suite-scale", "0.01", "--corpus-scale", "0.005"]

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def run_tiny(self, workload, trace, extra=()):
        code, stdout = run.run(self.binary, workload, 0, 1, trace,
                               [*TINY, *extra])
        self.assertEqual(code, 0, f"{workload} exited {code}")
        result = result_of(stdout)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def check_metrics(self, result, names):
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        expected = {m["name"]: m["unit"] for m in SPEC[names]}
        self.assertEqual(emitted, expected)
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))

    def test_every_workload_emits_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                plain = self.run_tiny(workload, 0)
                self.check_metrics(plain, "end_to_end")
                self.assertTrue(plain["correct"])
                self.assertEqual(plain["failed"], 0)
                self.assertEqual(plain["metrics"]["ok_ratio"]["value"], 1)
                traced = self.run_tiny(workload, 1)
                self.check_metrics(traced, "per_layer")
                self.assertTrue(traced["correct"])

    def test_corrupted_corpus_trace_counts_as_failure(self):
        result = self.run_tiny("corpus-cold", 0, ["--corrupt", "1"])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1)

    def test_fails_without_the_program_sources(self):
        bare = os.path.join(run.ROOT, ".bench_work", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            result = subprocess.run(
                [*SPEC["command"], "--workload", "suite-cond", "--seed",
                 "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(result.returncode, 0)
            self.assertEqual(result.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
