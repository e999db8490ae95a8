#!/usr/bin/env python3
"""Compares two sets of perfbench results, metric by metric.

    python3 perfbench/compare.py --base A1.log A2.log ... --change B1.log ...

Each file is the standard output of one `perfbench/run.py` run. For every
metric of the final JSON line the script prints each side's median and
quartiles and the change's median relative to the base's; for end-to-end
metrics it also says whether the change is worse than the bound fixed in
BENCHMARK.json. It refuses (exit 2) to compare results stamped with
different kernel tiers, workloads, trace modes or build types: those numbers
measure different programs.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MUST_MATCH = ("kernel_tier", "workload", "trace", "build_type")


def load(path):
    stamp, result = None, None
    with open(path) as f:
        for line in f:
            if line.startswith("# stamp "):
                stamp = json.loads(line[len("# stamp "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if stamp is None or result is None:
        sys.exit("compare: %s is not a perfbench result" % path)
    return stamp, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()

    runs = {side: [load(p) for p in getattr(args, side)]
            for side in ("base", "change")}
    reference = runs["base"][0][0]
    for side, results in runs.items():
        for stamp, _ in results:
            for key in MUST_MATCH:
                if stamp.get(key) != reference.get(key):
                    print("compare: refusing: %s %s=%r differs from %r" %
                          (side, key, stamp.get(key), reference.get(key)),
                          file=sys.stderr)
                    sys.exit(2)

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    print("%s (kernel tier %s); %d base runs, %d change runs" %
          (reference["workload"], reference["kernel_tier"],
           len(runs["base"]), len(runs["change"])))
    failed = {side: sum(r["failed"] for _, r in results)
              for side, results in runs.items()}
    print("failed operations: base %d, change %d" %
          (failed["base"], failed["change"]))
    print("%-32s %26s %26s %9s  %s" %
          ("metric", "base q1/median/q3", "change q1/median/q3", "change",
           "verdict"))
    for name in runs["base"][0][1]["metrics"]:
        sides = {}
        for side, results in runs.items():
            sides[side] = quartiles([r["metrics"][name]["value"]
                                     for _, r in results])
        b, c = sides["base"][1], sides["change"][1]
        rel = (c - b) / b if b else 0.0
        verdict = ""
        m = metrics.get(name, {})
        if "bound" in m:
            worse = -rel if m["better"] == "higher" else rel
            verdict = "worse than bound" if worse > m["bound"] else "within bound"
        print("%-32s %26s %26s %+8.1f%%  %s" % (
            name, "/".join("%.4g" % v for v in sides["base"]),
            "/".join("%.4g" % v for v in sides["change"]), 100 * rel, verdict))


if __name__ == "__main__":
    main()
