#!/usr/bin/env python3
"""Smoke test of the time-to-solution benchmark at tiny problem sizes.

    python3 ttsbench/smoke_test.py

Builds ttsbench the way run.py does, then for every workload in
BENCHMARK.json checks that:
  * an untraced and a traced run each end with a JSON result whose metrics
    are exactly the end-to-end / per-layer metrics of BENCHMARK.json, with
    the same units, and that each metric also prints by name with its unit;
  * a second run on the same seed prints the same exact values;
  * a run with a deliberately perturbed solution reports correct=false and
    counts the failure;
and that run.py fails without printing a result in a directory that holds
only BENCHMARK.json and the benchmark's own files.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep ttsbench/ free of build output
import run  # noqa: E402  (the build step is shared with run.py)

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what)


def ttsbench(binary, workload, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0.3",
           "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    check(proc.returncode == 0, f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = run.build(build_dir)
    if binary is None:
        sys.exit("build failed")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            text, result = ttsbench(binary, workload, trace)
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{workload} trace={trace}: metric names/units differ: "
                  f"missing {sorted(set(expected) - set(got))}, "
                  f"extra {sorted(set(got) - set(expected))}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace={trace}: not correct: {result}")
            for name, unit in expected.items():
                check(re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}$", text, re.M),
                      f"{workload} trace={trace}: '{name}' does not print with unit {unit}")
            if trace == 0:
                exact = re.findall(r"^  exact .*$", text, re.M)
                again, _ = ttsbench(binary, workload, 0)
                check(exact and exact == re.findall(r"^  exact .*$", again, re.M),
                      f"{workload}: exact values differ between two runs of one seed")

        _, spoiled = ttsbench(binary, workload, 0, "--perturb-solution")
        check(not spoiled["correct"] and spoiled["failed"] >= 1,
              f"{workload}: the gate did not trip on a perturbed solution: {spoiled}")

    # A directory with only BENCHMARK.json and the benchmark's files.
    bare = os.path.join(build_dir, "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload",
                           spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=60, check=False)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"run.py in a bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
