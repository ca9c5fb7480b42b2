#!/usr/bin/env python3
"""The benchmark's own tests: tiny-size smoke runs and a negative test.

    python3 perfbench/test_perfbench.py      # from the repository root

Smoke: every workload, untraced and traced, prints every metric that
BENCHMARK.json names (end-to-end untraced, per-layer traced) with its unit,
and every output check passes. Negative: with one rule of the reference
assignment flipped, each workload reports failed operations, `correct`
false, and a non-zero exit code.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("flow-40k", "dse-anneal", "serve-mix")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace=0, fault=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "10",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, wanted):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in wanted})

    def test_end_to_end_metrics_and_checks(self):
        wanted = spec()["end_to_end"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload)
                self.assertEqual(code, 0)
                self.check_metrics(result, wanted)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics_and_checks(self):
        wanted = spec()["per_layer"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, trace=1)
                self.assertEqual(code, 0)
                self.check_metrics(result, wanted)


class NegativeTest(unittest.TestCase):
    def test_flipped_reference_rule_fails_operations(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, fault="flip-rule")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
