#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at reduced sizes (a 5k-AS internet,
500 fleet targets, 2k service prefixes).

    python3 perfbench/test_smoke.py

For every workload, untraced and traced: run.py must emit exactly the
metric set BENCHMARK.json names for that mode, each with its unit, every
correctness check must pass (failed_frac = 0), and every count must be
nonzero.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        result = run(workload, trace)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            if m["unit"] == "count":
                self.assertNotEqual(got["value"], 0, m["name"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])


def add_cases():
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            def case(self, w=w["name"], trace=trace):
                self.check(w, trace)
            setattr(SmokeTest, f"test_{w['name']}_trace{trace}", case)


add_cases()

if __name__ == "__main__":
    unittest.main()
