#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run it from the repository root. The first run configures and builds the
benchmark (and the libraries it links) under .bench_build/perfbench; later
runs only check that the build is current. Build output goes to standard
error; standard output is the benchmark's: one "metric NAME VALUE UNIT" line
per metric, then the result as one JSON object on the last line. The exit
code is nonzero, and no result is printed, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("infer-fp32-cold", "serve-int8-mixed", "train-fp32-micro")
RUN_TIMEOUT_S = 170


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no repository sources next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="minimum-size inputs (the smoke test)")
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        sys.exit("perfbench: --seconds must be >= 1 and --seed >= 0")

    build()
    work = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(os.path.join(ROOT, work), exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        # Keep the span dump of a traced run next to the build.
        for name in os.listdir(os.path.join(ROOT, work)):
            if name.startswith("trace-"):
                os.replace(os.path.join(ROOT, work, name),
                           os.path.join(ROOT, BUILD, name))
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
