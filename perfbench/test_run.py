#!/usr/bin/env python3
"""Self-test of the benchmark: the strict CLI, and each workload at its
smallest size (metric names and units against BENCHMARK.json, checks
passing, simulated metrics repeating exactly).

    python3 perfbench/test_run.py

Builds perfbench/ like run.py does (first run takes a few minutes).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# End-to-end metrics measured on the host clock; the others are simulated
# and must repeat exactly for a given seed.
HOST_METRICS = {"setup_s", "peak_rss_mb"}


def run(*args, env=None):
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=900)


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Cli(unittest.TestCase):
    def test_bad_flags_exit_2_and_name_the_token(self):
        cases = [
            (["--bogus"], "--bogus"),
            (["--workload", "table2", "--seed", "1", "--seed", "2"], "--seed"),
            (["--workload", "table2", "--seed", "x1"], "x1"),
            (["--workload", "table2", "--seed", "-1"], "-1"),
            (["--workload", "table2", "--trace", "2"], "--trace"),
            (["--workload", "table2", "--seconds", "0"], "--seconds"),
            (["--workload", "table2", "--seconds"], "--seconds"),
            (["--workload", "nope"], "nope"),
            (["--seed", "1"], "--workload"),
            (["--list", "--seed", "1"], "--list"),
        ]
        for argv, token in cases:
            with self.subTest(argv=argv):
                p = run(*argv)
                self.assertEqual(p.returncode, 2)
                self.assertIn(token, p.stderr)
                self.assertEqual(p.stdout, "")

    def test_help_and_list_build_and_write_nothing(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "build")
            env = dict(os.environ, CARGO_TARGET_DIR=out)
            for flag in ("--help", "--list"):
                p = run(flag, env=env)
                self.assertEqual(p.returncode, 0)
                self.assertFalse(os.path.exists(out))
            self.assertIn("--workload", run("--help", env=env).stdout)

    def test_list_matches_manifest(self):
        names = [line.split()[0] for line in run("--list").stdout.splitlines()]
        self.assertEqual(names, [w["name"] for w in manifest()["workloads"]])


class Workloads(unittest.TestCase):
    def check_result(self, res, defs):
        self.assertTrue(res["correct"], res)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(list(res["metrics"]), [d["name"] for d in defs])
        for d in defs:
            self.assertEqual(res["metrics"][d["name"]]["unit"], d["unit"])

    def test_each_workload_smallest_size(self):
        m = manifest()
        for w in m["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                base = ["--workload", name, "--seconds", "1", "--smoke"]
                a = run(*base, "--seed", "3", "--trace", "0")
                b = run(*base, "--seed", "3", "--trace", "0")
                t = run(*base, "--seed", "3", "--trace", "1")
                for p in (a, b, t):
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                ra, rb, rt = result(a), result(b), result(t)
                self.check_result(ra, m["end_to_end"])
                self.check_result(rb, m["end_to_end"])
                self.check_result(rt, m["per_layer"])
                for k, v in ra["metrics"].items():
                    self.assertGreater(v["value"], 0, k)
                    if k not in HOST_METRICS:
                        self.assertEqual(v["value"], rb["metrics"][k]["value"],
                                         f"{name}: {k} differs across runs")


if __name__ == "__main__":
    unittest.main(verbosity=2)
