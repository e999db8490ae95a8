#!/usr/bin/env python3
"""Minimum-size smoke test of the benchmark.

    python3 perfbench/test_smoke.py

Runs every workload of BENCHMARK.json untraced and traced with --smoke
--seconds 1, and checks that every metric the file names prints with its
unit, that the last line is the result JSON with exactly the contract's keys,
that end-to-end metrics are never 0, and that error_rate is 0. Also checks
that the benchmark exits nonzero, printing no result, when the repository's
sources are missing. The first run builds the benchmark (a few minutes).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+)")


def run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace),
                             "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace):
        p = run(workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

        printed = {}
        for line in lines:
            m = METRIC_LINE.match(line)
            if m:
                printed[m.group(1)] = (float(m.group(2)), m.group(3))
        self.assertEqual(printed["error_rate"], (0.0, "ratio"))

        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec])
        for m in spec:
            name = m["name"]
            self.assertIn(name, printed)
            self.assertEqual(printed[name][1], m["unit"], name)
            self.assertEqual(result["metrics"][name]["unit"], m["unit"], name)
            if not trace:
                self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_refuses_without_sources(self):
        build_dir = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            p = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


def add_workload_tests():
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            name = "test_%s_trace%d" % (w["name"].replace("-", "_"), trace)
            setattr(Smoke, name,
                    lambda self, w=w["name"], t=trace: self.check_run(w, t))


add_workload_tests()

if __name__ == "__main__":
    unittest.main()
