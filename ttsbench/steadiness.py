#!/usr/bin/env python3
"""Run-to-run spread of the time-to-solution benchmark.

    python3 ttsbench/steadiness.py --workload torso_p16 --seeds 1,2,3,4,5 \
        --save set1.json
    python3 ttsbench/steadiness.py --compare set1.json set2.json

The first form runs ttsbench/run.py once per seed, one run at a time, and
prints for each end-to-end metric the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the bound in BENCHMARK.json. It also lists the exact
values the binary printed and whether they agree across the runs: values
that do not depend on the seed (factor checksums, PILUT counters, modeled
factor time) must agree across all of them. --save keeps the raw results,
with each run's "share of" and "latency samples" lines. --seconds defaults
to run_seconds from BENCHMARK.json.

The second form checks that the second set's median is no worse than the
first's by more than the bound, for every metric of every workload.
Exit status is 1 when a spread exceeds its bound or a median regressed.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed (seed {seed}, exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    exact = dict(re.findall(r"^  exact (\S+) (\S+)$", proc.stdout, re.M))
    notes = re.findall(r"^(?:share of|latency samples) .*$", proc.stdout, re.M)
    return {"seed": seed, "result": result, "exact": exact, "notes": notes}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def report(workload, runs, bounds):
    print(f"\n{workload}: {len(runs)} runs, seeds {[r['seed'] for r in runs]}")
    ok = True
    for r in runs:
        res = r["result"]
        if not res["correct"] or res["failed"]:
            print(f"  seed {r['seed']}: correct={res['correct']} failed={res['failed']}")
            ok = False
    names = sorted(runs[0]["result"]["metrics"])
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med, rel = spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and rel > bound:
            flag, ok = "  OVER BOUND", False
        elif bound is not None and rel > bound / 3:
            flag = "  over a third of the bound"
        print(f"  {name:16s} median {med:12.6g}  spread {rel:7.4f}  bound {bound}{flag}")
    keys = sorted(set().union(*(r["exact"] for r in runs)))
    same = [k for k in keys if len({r["exact"].get(k) for r in runs}) == 1]
    print(f"  exact values identical across these runs: {len(same)} of {len(keys)}")
    for k in keys:
        if k not in same:
            print(f"    varies with the seed: {k}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        ok = True
        for workload, first in sets[0].items():
            second = sets[1][workload]
            for name, bound in bounds.items():
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
                a = statistics.median(r["result"]["metrics"][name]["value"] for r in first)
                b = statistics.median(r["result"]["metrics"][name]["value"] for r in second)
                worse = (b - a) / a if better == "lower" else (a - b) / a
                flag = "  REGRESSED" if worse > bound else ""
                ok = ok and not flag
                print(f"{workload:18s} {name:16s} {a:12.6g} -> {b:12.6g}  "
                      f"worse by {worse:+.4f} (bound {bound}){flag}")
        return 0 if ok else 1

    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    saved, ok = {}, True
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds))
            print(f"  {workload} seed {seed} done", file=sys.stderr)
        saved[workload] = runs
        ok = report(workload, runs, bounds) and ok
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
