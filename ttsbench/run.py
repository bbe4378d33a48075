#!/usr/bin/env python3
"""Build the time-to-solution benchmark from this checkout and run one workload.

    python3 ttsbench/run.py --workload torso_p16 --seed 1 --seconds 25 --trace 0

Configures and builds ttsbench/CMakeLists.txt (Release) into the directory
named by CARGO_TARGET_DIR, or .bench_build when it is unset, then runs the
ttsbench binary. The binary's standard output is passed through unchanged;
its last line is the JSON result. Build output goes to standard error.
Traced runs (--trace 1) write their spans under <build dir>/spans/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("torso_p16", "g0_p64_multi_rhs", "serial_cache_mix")
# The binary stops measuring after --seconds; this only guards a hang.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build; returns the binary's path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "ttsbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "ttsbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src", "include", os.path.join("bench", "bench_common.hpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 3
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", spans_dir]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: ttsbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
