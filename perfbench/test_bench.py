#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_bench.py

Each test makes short runs (2 s windows) of the real benchmark binary.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lsched_closed", "fifo_open", "train_sim"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def assert_metrics(self, result, declared):
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_prints_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = run(workload, 0)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assert_metrics(result, self.bench["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_prints_the_ledger_and_reconciles(self):
        for workload in ["lsched_closed", "fifo_open"]:
            with self.subTest(workload=workload):
                result, err = run(workload, 1)
                self.assertTrue(result["correct"], err)
                self.assert_metrics(result, self.bench["per_layer"])
                m = re.search(r"ledger: decisions (\d+) engine (\d+); terminals "
                              r"(\d+) sent (\d+) done (\d+) latencies (\d+)", err)
                self.assertIsNotNone(m, err)
                decisions, engine, terminals, sent, done, latencies = map(
                    int, m.groups())
                self.assertEqual(decisions, engine)
                self.assertEqual(terminals, sent)
                self.assertEqual(done, sent)
                self.assertEqual(latencies, done)
                self.assertEqual(result["metrics"]["sched.decisions"]["value"],
                                 decisions)
                self.assertEqual(result["attempted"], sent)

    def test_corrupted_checksum_fails_the_gate(self):
        result, _ = run("lsched_closed", 0, "--corrupt-checksum")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_bad_arguments_are_refused(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
