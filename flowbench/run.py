#!/usr/bin/env python3
"""Builds the flow benchmark driver (Release) and runs one workload.

    python3 flowbench/run.py --workload route-10k --seed 1 --seconds 10 --trace 0
    python3 flowbench/run.py --selftest

Run from the repository root.  The first call configures and builds
flowbench/CMakeLists.txt (the driver plus the program's libraries from
src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls only re-check the build.  Build output goes to stderr, so the last
line of stdout is the driver's JSON result, which carries the metrics
BENCHMARK.json names.  Exits non-zero, without a result, when the build
or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures (once) and builds the driver; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "flowbench_driver", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("flowbench: build step failed: " + " ".join(step))
    return os.path.join(out, "flowbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    driver = build()
    if args.selftest:
        sys.exit(subprocess.run([driver, "--selftest"], timeout=RUN_TIMEOUT_S).returncode)
    if not args.workload:
        parser.error("--workload is required")

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("flowbench: the run did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit("flowbench: driver exited with code %d" % run.returncode)
    json.loads(lines[-1])  # a result line, or fail here
    print("\n".join(lines))


if __name__ == "__main__":
    main()
