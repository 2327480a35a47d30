#!/usr/bin/env python3
"""Tests of the repository benchmark.

Runs every workload at minimal length, untraced and traced, through
perfbench/run.py (which builds the benchmark first), and checks that:

  * every metric BENCHMARK.json names is printed with its unit, and no other;
  * the output checks pass (correct, no failed jobs, exit code 0);
  * the traced run's per-layer self times add up to its wall time within
    SELF_TIME_TOLERANCE, and its spans nest inside their parents;
  * malformed command lines exit non-zero without printing a result.

Usage, from the repository root (takes a few minutes; sweep_dram allocates
about 6.5 GiB):

    python3 perfbench/test_perfbench.py
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

# The client-thread spans cover the whole traced run except argument
# parsing, the host probe and writing the trace file.
SELF_TIME_TOLERANCE = 0.02


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(args):
    return subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class CommandLine(unittest.TestCase):
    def test_rejects_malformed_arguments(self):
        bad = [
            [],
            ["--workload", "serve_openloop"],
            ["--seed", "1"],
            ["--workload", "nope", "--seed", "1"],
            ["--workload", "serve_openloop", "--seed", "-3"],
            ["--workload", "serve_openloop", "--seed", "12x"],
            ["--workload", "serve_openloop", "--seed", "1", "--seconds", "0"],
            ["--workload", "serve_openloop", "--seed", "1", "--seconds", "abc"],
            ["--workload", "serve_openloop", "--seed", "1", "--trace", "2"],
            ["--workload", "serve_openloop", "--seed", "1", "--bogus", "1"],
            ["--workload", "serve_openloop", "--seed", "1", "--seed", "2"],
            ["--workload", "serve_openloop", "--seed"],
            ["--help"],
        ]
        for args in bad:
            with self.subTest(args=args):
                proc = run_bench(args)
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(proc.stdout.strip().endswith("}"), proc.stdout)


class Workloads(unittest.TestCase):
    spec = load_spec()

    def check_result(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        res = result_of(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), set(names))
        return res

    def run_workload(self, name):
        e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in self.spec["per_layer"]}

        proc = run_bench(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0"])
        res = self.check_result(proc, e2e)
        for metric, unit in e2e.items():
            self.assertEqual(res["metrics"][metric]["unit"], unit, metric)
            self.assertGreater(res["metrics"][metric]["value"], 0.0, metric)

        proc = run_bench(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", "1"])
        res = self.check_result(proc, layers)
        for metric, unit in layers.items():
            self.assertEqual(res["metrics"][metric]["unit"], unit, metric)
        self.assertEqual(res["metrics"]["failed_frac"]["value"], 0.0)

        trace_line = [l for l in proc.stdout.splitlines() if l.startswith("trace: ")]
        self.assertEqual(len(trace_line), 1, proc.stdout)
        path = trace_line[0].split()[1]
        with open(path) as f:
            trace = json.load(f)
        spans = trace["spans"]
        client = [s for s in spans if s["track"] == 0]
        for s in client:
            self.assertLessEqual(s["begin_ns"], s["end_ns"], s)
            if s["parent"] >= 0:
                p = spans[s["parent"]]
                self.assertTrue(p["begin_ns"] <= s["begin_ns"] and s["end_ns"] <= p["end_ns"],
                                (s, p))
        # Self time recomputed here: a span's duration minus its children's.
        child_ns = {}
        for s in client:
            if s["parent"] >= 0:
                child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["begin_ns"]
        self_ms = sum((s["end_ns"] - s["begin_ns"] - child_ns.get(s["id"], 0)) * 1e-6
                      for s in client)
        wall = trace["wall_ms"]
        self.assertLessEqual(abs(self_ms - wall), SELF_TIME_TOLERANCE * wall, (self_ms, wall))
        self.assertAlmostEqual(self_ms, trace["self_sum_ms"], delta=1e-3 * wall)
        for layer in ("setup", "workload", "kernel", "persistent", "server", "client"):
            self.assertIn(layer, trace["layer_self_ms"])

    def test_sweep_dram(self):
        self.run_workload("sweep_dram")

    def test_iterate_resident(self):
        self.run_workload("iterate_resident")

    def test_serve_openloop(self):
        self.run_workload("serve_openloop")


if __name__ == "__main__":
    unittest.main(verbosity=2)
