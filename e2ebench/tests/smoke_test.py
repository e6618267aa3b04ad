#!/usr/bin/env python3
"""Smoke run of every workload: one short run with tracing off and one
with tracing on, each checked to emit every metric BENCHMARK.json names,
with its unit, and to pass its own checks.

    python3 e2ebench/tests/smoke_test.py

Builds the benchmark first (run.py does); a service run needs about
50 s even with --seconds 1, because every trace runs at least once.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "e2ebench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
        timeout=300)
    return done.returncode, done.stdout.strip().splitlines()


class Smoke(unittest.TestCase):
    def check(self, workload, trace, wanted):
        code, lines = run(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float), m["name"])
        return metrics


def add_cases():
    for w in SPEC["workloads"]:
        name = w["name"]

        def untraced(self, name=name):
            metrics = self.check(name, 0, SPEC["end_to_end"])
            for m in SPEC["end_to_end"]:
                self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])

        def traced(self, name=name):
            metrics = self.check(name, 1, SPEC["per_layer"])
            self.assertEqual(metrics["comm.retransmits"]["value"], 0)
            rows = sum(v["value"] for k, v in metrics.items() if k.startswith("self_ms."))
            self.assertAlmostEqual(rows, metrics["traced.wall_ms.mean"]["value"], delta=1e-6 * rows)
            self.assertLess(metrics["trace.unattributed_ratio"]["value"], 1.0)

        setattr(Smoke, f"test_{name}_untraced", untraced)
        setattr(Smoke, f"test_{name}_traced", traced)


add_cases()

if __name__ == "__main__":
    unittest.main()
