#!/usr/bin/env python3
"""Fixture-driven tests for check_bench_json.py's serve-schema support.

Runs the validator over every fixture under tests/serve_fixtures/: files
named ok_*.json must validate cleanly, files named bad_*.json must be
rejected (each one violates exactly one documented identity, so a pass
here means the corresponding check actually fires). Fixtures under the
report/ subdirectory are ptilu-serve-report-v1 documents and are routed
through check_serve_report.py instead (same ok_/bad_ convention). On top
of the per-file sweep it exercises the --compare dispatch: serve-vs-serve
with wall data succeeds, --exact files are refused (no wall data), a
payload-checksum mismatch is refused (different batch plans), and a
serve file compared against a wallclock file is refused as cross-family.
It also checks that retired schemas (ptilu-bench-wallclock-v1..v3,
ptilu-report-v1) are rejected by name, and that a scalar-vs-blocked
wallclock compare records no speedup for a bench whose checksum is equal
across the variants.

Invoked as `test_check_bench_serve.py --cross-backend A.json B.json` it
instead checks backend-identical execution: two --exact serve files must
agree on every field except "backend" and "threads" (which record which
interpreter ran). JSON floats round-trip %.17g exactly, so dict equality
is a bit-exactness test on the modeled results and checksums.

Stdlib only, exit 0 on success, 1 with a FAIL line per broken case.
"""
import json
import os
import subprocess
import sys
import tempfile

from ptilu_check import finish, load

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO, "scripts", "check_bench_json.py")
REPORT_CHECKER = os.path.join(REPO, "scripts", "check_serve_report.py")
RUN_REPORT_CHECKER = os.path.join(REPO, "scripts", "check_report.py")
FIXTURES = os.path.join(REPO, "tests", "serve_fixtures")
REPORT_FIXTURES = os.path.join(FIXTURES, "report")


def run_checker(*argv):
    return subprocess.run([sys.executable, CHECKER, *argv],
                          capture_output=True, text=True)


def run_report_checker(*argv):
    return subprocess.run([sys.executable, REPORT_CHECKER, *argv],
                          capture_output=True, text=True)


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def wallclock_doc(variant, benches):
    """A minimal valid ptilu-bench-wallclock-v4 document."""
    doc = {"schema": "ptilu-bench-wallclock-v4", "quick": False, "repetitions": 1,
           "backend": "sequential", "threads": 0, "variant": variant,
           "benches": [{"name": name, "workload": "G0", "kind": "factorization",
                        "n": 16, "nnz": 64, "checksum": checksum, "reps_s": [median],
                        "median_s": median, "min_s": median, "max_s": median}
                       for name, checksum, median in benches]}
    if variant == "blocked":
        doc.update(panel=8, slack=3.0)
    return doc


def cross_backend(path_a, path_b) -> int:
    docs = []
    for path in (path_a, path_b):
        errors = []
        doc = load(path, errors)
        if doc is None:
            return finish(errors)
        if doc.get("exact") is not True:
            print(f"FAIL: {path}: cross-backend check needs --exact files "
                  f"(wall timings legitimately differ)")
            return 1
        doc.pop("backend", None)
        doc.pop("threads", None)
        docs.append(doc)
    if docs[0] != docs[1]:
        diffs = [key for key in docs[0] if docs[0][key] != docs[1].get(key)]
        print(f"FAIL: {path_a} and {path_b} disagree outside backend/threads "
              f"(differing keys: {diffs}) — the backends are not bit-identical")
        return 1
    print(f"OK: {path_a} and {path_b} agree on every field except backend/threads")
    return 0


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--cross-backend":
        return cross_backend(sys.argv[2], sys.argv[3])
    if len(sys.argv) != 1:
        print(f"usage: {sys.argv[0]} [--cross-backend A.json B.json]")
        return 2

    failures = []

    fixtures = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json"))
    if not any(f.startswith("ok_") for f in fixtures):
        failures.append(f"no ok_*.json fixtures found in {FIXTURES}")
    if not any(f.startswith("bad_") for f in fixtures):
        failures.append(f"no bad_*.json fixtures found in {FIXTURES}")

    for name in fixtures:
        path = os.path.join(FIXTURES, name)
        proc = run_checker(path)
        if name.startswith("ok_") and proc.returncode != 0:
            failures.append(f"{name}: expected to validate, got:\n{proc.stdout}")
        elif name.startswith("bad_") and proc.returncode == 0:
            failures.append(f"{name}: expected rejection, but it validated")

    # Serve-report fixtures: same ok_/bad_ convention, different checker.
    report_fixtures = sorted(f for f in os.listdir(REPORT_FIXTURES)
                             if f.endswith(".json"))
    if not any(f.startswith("ok_") for f in report_fixtures):
        failures.append(f"no ok_*.json fixtures found in {REPORT_FIXTURES}")
    if not any(f.startswith("bad_") for f in report_fixtures):
        failures.append(f"no bad_*.json fixtures found in {REPORT_FIXTURES}")
    for name in report_fixtures:
        path = os.path.join(REPORT_FIXTURES, name)
        proc = run_report_checker(path)
        if name.startswith("ok_") and proc.returncode != 0:
            failures.append(f"report/{name}: expected to validate, got:\n{proc.stdout}")
        elif name.startswith("bad_") and proc.returncode == 0:
            failures.append(f"report/{name}: expected rejection, but it validated")

    ok_wall = os.path.join(FIXTURES, "ok_wall.json")
    ok_exact = os.path.join(FIXTURES, "ok_exact.json")

    proc = run_checker("--compare", ok_wall, ok_wall)
    if proc.returncode != 0:
        failures.append(f"serve-vs-serve self-compare should succeed:\n{proc.stdout}")
    elif "1.00x" not in proc.stdout:
        failures.append(f"self-compare should report 1.00x ratios:\n{proc.stdout}")

    proc = run_checker("--compare", ok_exact, ok_exact)
    if proc.returncode == 0 or "no wall data" not in proc.stdout:
        failures.append(f"--exact compare should be refused:\n{proc.stdout}")

    with tempfile.TemporaryDirectory() as tmp:
        # A payload_checksum mismatch means the two runs planned different
        # batches, so their throughput is not comparable.
        doc = load(ok_wall, failures)
        doc["payload_checksum"] = "feedfacefeedface"
        mutated = write_json(os.path.join(tmp, "mutated_checksum.json"), doc)
        proc = run_checker("--compare", ok_wall, mutated)
        if proc.returncode == 0 or "payload_checksum mismatch" not in proc.stdout:
            failures.append(
                f"checksum-mismatch compare should be refused:\n{proc.stdout}")

        # Cross-family refusal: a minimal valid wallclock doc against a
        # serve doc must be rejected regardless of argument order.
        wallclock = write_json(os.path.join(tmp, "wallclock.json"),
                               wallclock_doc("scalar", [("factor", 1.0, 0.5)]))
        for pair in ((wallclock, ok_wall), (ok_wall, wallclock)):
            proc = run_checker("--compare", *pair)
            if proc.returncode == 0 or "cross-family" not in proc.stdout:
                failures.append(
                    f"cross-family compare {pair} should be refused:\n{proc.stdout}")

        # Retired schemas have no reader left: each is rejected by name.
        doc = load(wallclock, failures)
        for version in ("v1", "v2", "v3"):
            doc["schema"] = f"ptilu-bench-wallclock-{version}"
            path = write_json(os.path.join(tmp, f"wallclock_{version}.json"), doc)
            proc = run_checker(path)
            if proc.returncode == 0 or f"schema is '{doc['schema']}'" not in proc.stdout:
                failures.append(f"{doc['schema']} should be rejected by name:\n{proc.stdout}")
        report_v1 = write_json(os.path.join(tmp, "report_v1.json"),
                               {"schema": "ptilu-report-v1", "ranks": 1, "run": {}})
        proc = subprocess.run([sys.executable, RUN_REPORT_CHECKER, report_v1],
                              capture_output=True, text=True)
        if proc.returncode == 0 or "schema is 'ptilu-report-v1'" not in proc.stdout:
            failures.append(f"ptilu-report-v1 should be rejected by name:\n{proc.stdout}")

        # Scalar vs blocked: a bench whose checksum is equal across the
        # variants ran the same code twice, so it gets a note and no speedup.
        scalar = write_json(os.path.join(tmp, "scalar.json"), wallclock_doc(
            "scalar", [("ilut_G0", 1.0, 0.5), ("pilut_G0_p4", 2.0, 0.5)]))
        blocked = write_json(os.path.join(tmp, "blocked.json"), wallclock_doc(
            "blocked", [("ilut_G0", 1.5, 0.25), ("pilut_G0_p4", 2.0, 0.25)]))
        merged = os.path.join(tmp, "merged.json")
        proc = run_checker("--compare", scalar, blocked, "--allow-variant-mismatch",
                           "--out", merged)
        if proc.returncode != 0 or "pilut_G0_p4: checksum equal across kernel variants " \
                "— variant-independent" not in proc.stdout:
            failures.append(f"variant-independent bench should be noted:\n{proc.stdout}")
        else:
            rows = {b["name"]: b for b in load(merged, failures)["benches"]}
            if "speedup" in rows["pilut_G0_p4"] or "baseline_median_s" in rows["pilut_G0_p4"]:
                failures.append("variant-independent bench must not record a speedup")
            if rows["ilut_G0"].get("speedup") != 2.0:
                failures.append(f"ilut_G0 should record speedup 2.0: {rows['ilut_G0']}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        print(f"{len(failures)} failure(s)")
        return 1
    print(f"OK: {len(fixtures)} bench fixtures, {len(report_fixtures)} report "
          f"fixtures, compare dispatch verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
