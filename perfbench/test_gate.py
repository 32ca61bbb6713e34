"""Tests of the benchmark itself: the correctness gate passes on the known
answers and trips on a wrong expected count, and both result shapes match
BENCHMARK.json.

    python3 perfbench/test_gate.py

Each case runs perfbench/run.py (which builds the driver on first use)
for one short iteration.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def bench(workload, trace, *extra):
    """Runs one short benchmark; returns (exit code, result object or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if proc.returncode == 0 else None)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def reported(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


class GateTest(unittest.TestCase):
    def test_known_answers_pass(self):
        code, result = bench("abp_liveness", 0)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(reported(result), declared("end_to_end"))

    def test_wrong_expected_count_trips_gate(self):
        # Negative control: the pinned state count is off by one.
        code, result = bench("cq_explore", 0, "--perturb", "cq.graph_states")
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_unknown_perturb_key_is_refused(self):
        code, _ = bench("cq_explore", 0, "--perturb", "cq.no_such_count")
        self.assertEqual(code, 2)

    def test_traced_run_reports_every_per_layer_metric(self):
        code, result = bench("cq_explore", 1)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(reported(result), declared("per_layer"))
        self.assertGreater(result["metrics"]["par.speedup"]["value"], 0)
        trace = os.path.join(ROOT, ".bench_build", "traces", "cq_explore-seed%d.json" % SEED)
        with open(trace) as f:
            spans = json.load(f)["rounds"][0]["spans"]
        self.assertIn("compose.build", {s["name"] for s in spans})
        self.assertIn("StateGraph.explore", {s["name"] for s in spans})


if __name__ == "__main__":
    unittest.main()
