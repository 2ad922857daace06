#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

For every workload in BENCHMARK.json, short runs (--seconds 1) check that:
  * two seeds give different inputs (psme_bench's input digest differs),
    and the same seed gives the same inputs;
  * both seeds print the same metric names, which are exactly the
    end_to_end names of BENCHMARK.json (--trace 0) or its per_layer names
    (--trace 1);
  * every threaded result matches the serial oracle (failed == 0), and the
    traced pass covers at least 95% of its wall with caller-thread spans.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, seed, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    def check_workload(self, workload):
        e2e = [m["name"] for m in BENCH["end_to_end"]]
        layers = [m["name"] for m in BENCH["per_layer"]]
        meta1, res1 = run(workload, 1)
        meta2, res2 = run(workload, 2)
        meta1b, _ = run(workload, 1)
        self.assertNotEqual(meta1["input_digest"], meta2["input_digest"])
        self.assertEqual(meta1["input_digest"], meta1b["input_digest"])
        for res in (res1, res2):
            self.assertTrue(res["correct"])
            self.assertGreater(res["attempted"], 0)
            self.assertEqual(res["failed"], 0)
            self.assertEqual(list(res["metrics"]), e2e)
            self.assertEqual(res["metrics"]["success_ratio"]["value"], 1.0)
        _, traced = run(workload, 3, trace=1)
        self.assertTrue(traced["correct"])
        self.assertEqual(traced["failed"], 0)
        self.assertEqual(list(traced["metrics"]), layers)
        self.assertGreaterEqual(traced["metrics"]["ledger.coverage"]["value"], 0.95)


def _make_test(name):
    return lambda self: self.check_workload(name)


for _w in BENCH["workloads"]:
    setattr(PerfbenchTest, "test_" + _w["name"].replace("-", "_"),
            _make_test(_w["name"]))

if __name__ == "__main__":
    unittest.main()
