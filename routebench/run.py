#!/usr/bin/env python3
"""Builds the route-server benchmark from this checkout and runs it.

    python3 routebench/run.py --workload metro_plan --seed 1 --seconds 10 --trace 0

Run from anywhere; paths resolve against the checkout that holds this
file. The first run configures and builds routebench/CMakeLists.txt
(which builds ../src) into .bench_build/routebench; later runs rebuild
incrementally. Before each run the benchmark's self-tests must pass.
The last line of stdout is the benchmark's JSON result; build output
and diagnostics go to stderr. Exits non-zero without a result when the
sources are missing, the build fails or a self-test fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "routebench")
BINARY = os.path.join(BUILD_DIR, "routebench")
# A run must end within 180 s; leave room to report a hang.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("routebench: no SunChase sources next to the benchmark")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "routebench", "-j", jobs],
        check=True,
        stdout=sys.stderr,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit(f"routebench: build failed: {error}")
    self_test = subprocess.run([BINARY, "--self-test"], stdout=sys.stderr)
    if self_test.returncode != 0:
        sys.exit("routebench: self-test failed")

    spans_dir = os.path.join(ROOT, ".bench_build", "routebench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [
        BINARY,
        "--workload", args.workload,
        "--seed", args.seed,
        "--seconds", args.seconds,
        "--trace", args.trace,
        "--spans-out", os.path.join(spans_dir, f"{args.workload}.jsonl"),
    ]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"routebench: no result within {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
