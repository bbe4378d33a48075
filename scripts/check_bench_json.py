#!/usr/bin/env python3
"""Validate — and optionally compare — bench JSON files.

Three schema families are understood, dispatched on the file's "schema":

  * ptilu-bench-wallclock-v4 — bench_wallclock output (host seconds);
  * ptilu-bench-scale-v1 — bench_scale output (modeled strong/weak scaling
    sweeps; see docs/SCALING.md);
  * ptilu-bench-serve-v1 — bench_serve output (the preconditioner-serving
    harness: batched-apply queueing benches, concurrent GMRES streams, and
    batched distributed trisolves; see docs/SERVING.md).

bench_scale validation: top level carries "workload", the execution
backend, and a "sweeps" list; every sweep has a mode in {strong, weak} and
a non-empty "points" list with strictly ascending positive rank counts;
every point's modeled phase seconds are positive and sum to
"modeled_total_s" exactly (the harness reads phase boundaries off one
modeled clock); "speedup" (strong) and "efficiency" (both modes) are
recomputed from the sweep's first point and must match. Comparison mode is
wallclock-only — modeled scale numbers are deterministic, so two runs of
the same binary are byte-identical and a speedup ratio is meaningless.

bench_serve validation: top level carries the execution backend, boolean
"smoke"/"quick"/"exact", the workload with positive n/nnz, positive
"requests", the traffic "seed" and "mean_interarrival_s", a "cache"
object whose hit/miss/eviction counters are non-negative, and a 16-hex
"payload_checksum" over the deterministic fields (identical across
backends by contract). Every apply bench must satisfy the queueing
identities: ceil(requests / batch_max) <= batches <= requests, p50 <= p99
(modeled always, wall when present), and solves-per-second must equal
requests / total seconds as recorded. Files written with --exact omit
every wall_* field, so two such files are byte-comparable across runs and
backends. serve-vs-serve comparison pairs apply benches by name, requires
matching payload checksums (same deterministic plan, or the wall ratio is
meaningless), and reports the wall-throughput ratio; --exact files have no
wall data and are refused.

Cross-family --compare (wallclock vs scale vs serve, in any order) is
always refused: the numbers live on different axes.

bench_wallclock validation checks (stdlib only, no third-party dependencies):
  * the file is valid JSON with "schema": "ptilu-bench-wallclock-v4";
  * top level carries a boolean "quick", a positive int "repetitions", the
    execution backend ("sequential" or "threads"), the worker-pool size
    ("threads", 0 = auto), and the kernel "variant" ("scalar" or
    "blocked" — the supernodal/register-blocked ILUT path);
  * "benches" is a non-empty list; every entry has a unique name, a
    workload, a kind in {factorization, solve}, positive n/nnz, a
    "reps_s" list of `repetitions` positive floats, and median/min/max
    consistent with the samples (median recomputed, min <= median <= max);
  * a numeric "checksum" (guards against dead-code-eliminated benches);
  * benches may carry "report_checksum", the 16-hex-digit FNV-1a hash of
    the metrics report payload of an untimed observed rerun (written when
    bench_wallclock runs with --report/--report-dir).

Comparison mode (--compare BASELINE CURRENT) validates both files, pairs
benches by name, requires matching checksums (the two builds must compute
identical results for a wall-clock comparison to be meaningful), and
prints the per-bench speedup baseline_median / current_median. When both
sides carry "report_checksum" and the values differ while the numeric
checksums match, a note flags the phase-distribution shift: the builds
computed the same factors, but distributed modeled time or traffic across
phases differently (a critical-path change worth reading the reports
for). With
--require-speedup X it fails unless every *factorization* bench reaches
that speedup; with --out PATH it writes CURRENT augmented with
"baseline_median_s" and "speedup" per bench (the merged file still
validates under the same schema).

Comparing runs from *different execution backends* is refused by default:
a sequential-vs-threads wall-clock delta measures the backend, not the
code change under test. Pass --allow-backend-mismatch when that backend
speedup is exactly what you mean to measure (checksums still must match —
the backends are bit-identical by contract).

Comparing runs from *different kernel variants* (scalar vs blocked) is
likewise refused by default; pass --allow-variant-mismatch when the
blocked path's speedup over scalar is the measurement you want. Unlike a
backend mismatch, the blocked variant drops block-wise (Frobenius norm
over register tiles), so its factors — and hence its checksums —
legitimately differ from scalar: with --allow-variant-mismatch a checksum
mismatch is reported as a note, not a failure. A bench whose checksum is
*equal* across the variants ran the same code on both sides (the variant
never reaches it, e.g. the pilut_* rows): it is noted as
variant-independent and gets no speedup, in the table or in --out.

Exit status 0 on success, 1 on any violation.

Usage:
  check_bench_json.py BENCH.json
  check_bench_json.py --compare OLD.json NEW.json [--require-speedup 1.3]
                      [--out MERGED.json] [--allow-backend-mismatch]
                      [--allow-variant-mismatch]
"""

import argparse
import json
import sys

from ptilu_check import finish, is_hex16, load

SCHEMA = "ptilu-bench-wallclock-v4"
SCALE_SCHEMA = "ptilu-bench-scale-v1"
SERVE_SCHEMA = "ptilu-bench-serve-v1"
BACKENDS = {"sequential", "threads"}
VARIANTS = {"scalar", "blocked"}
KINDS = {"factorization", "solve"}
REL_EPS = 1e-9


def validate_scale(doc, path, errors):
    """Append ptilu-bench-scale-v1 violations for doc to errors."""
    if not isinstance(doc.get("workload"), str) or not doc.get("workload"):
        errors.append(f"{path}: missing 'workload'")
    if doc.get("backend") not in BACKENDS:
        errors.append(
            f"{path}: 'backend' is {doc.get('backend')!r}, want one of {sorted(BACKENDS)}")
    if not isinstance(doc.get("smoke"), bool):
        errors.append(f"{path}: missing boolean 'smoke'")
    sweeps = doc.get("sweeps")
    if not isinstance(sweeps, list) or not sweeps:
        errors.append(f"{path}: 'sweeps' must be a non-empty list")
        return
    for i, sweep in enumerate(sweeps):
        where = f"{path}: sweeps[{i}]"
        if not isinstance(sweep, dict):
            errors.append(f"{where}: not an object")
            continue
        mode = sweep.get("mode")
        if mode not in ("strong", "weak"):
            errors.append(f"{where}: mode {mode!r} not in ['strong', 'weak']")
            continue
        points = sweep.get("points")
        if not isinstance(points, list) or not points:
            errors.append(f"{where}: 'points' must be a non-empty list")
            continue
        last_p = 0
        for j, pt in enumerate(points):
            pwhere = f"{where}: points[{j}]"
            if not isinstance(pt, dict):
                errors.append(f"{pwhere}: not an object")
                continue
            for key in ("p", "n", "nnz", "rows_max", "supersteps"):
                if not isinstance(pt.get(key), int) or pt.get(key) <= 0:
                    errors.append(f"{pwhere}: '{key}' must be a positive int")
            for key in ("messages", "bytes", "max_fanout"):
                if not isinstance(pt.get(key), int) or pt.get(key) < 0:
                    errors.append(f"{pwhere}: '{key}' must be a non-negative int")
            phase_keys = ("modeled_factor_s", "modeled_trisolve_s", "modeled_gmres_s")
            for key in phase_keys + ("modeled_total_s",):
                if not isinstance(pt.get(key), (int, float)) or pt.get(key) <= 0:
                    errors.append(f"{pwhere}: '{key}' must be a positive number")
                    break
            else:
                total = pt["modeled_total_s"]
                phase_sum = sum(pt[key] for key in phase_keys)
                if abs(phase_sum - total) > 1e-12 * max(1.0, abs(total)):
                    errors.append(
                        f"{pwhere}: phase seconds sum to {phase_sum!r}, "
                        f"'modeled_total_s' is {total!r}")
            if isinstance(pt.get("p"), int):
                if pt["p"] <= last_p:
                    errors.append(f"{pwhere}: 'p' must be strictly ascending per sweep")
                last_p = pt["p"]
        # Speedup/efficiency are relative to the sweep's first point and
        # must be reproducible from the recorded totals.
        first = points[0] if isinstance(points[0], dict) else {}
        t0, p0 = first.get("modeled_total_s"), first.get("p")
        if not isinstance(t0, (int, float)) or not isinstance(p0, int) or t0 <= 0:
            continue
        for j, pt in enumerate(points):
            pwhere = f"{where}: points[{j}]"
            if not isinstance(pt, dict) or not isinstance(pt.get("modeled_total_s"),
                                                          (int, float)):
                continue
            ratio = t0 / pt["modeled_total_s"]
            if mode == "strong":
                for key, want in (("speedup", ratio), ("efficiency", ratio * p0 / pt["p"])):
                    got = pt.get(key)
                    if not isinstance(got, (int, float)):
                        errors.append(f"{pwhere}: missing numeric '{key}'")
                    elif abs(got - want) > 1e-9 * max(1.0, abs(want)):
                        errors.append(f"{pwhere}: '{key}' is {got!r}, recomputed {want!r}")
            else:
                got = pt.get("efficiency")
                if not isinstance(got, (int, float)):
                    errors.append(f"{pwhere}: missing numeric 'efficiency'")
                elif abs(got - ratio) > 1e-9 * max(1.0, abs(ratio)):
                    errors.append(f"{pwhere}: 'efficiency' is {got!r}, recomputed {ratio!r}")


def _schema_family(doc):
    schema = doc.get("schema")
    if schema == SCALE_SCHEMA:
        return "scale"
    if schema == SERVE_SCHEMA:
        return "serve"
    return "wallclock"


def _check_rate(where, doc_part, count, total_key, rate_key, errors):
    """solves-per-second fields must be recomputable from count / total."""
    total = doc_part.get(total_key)
    rate = doc_part.get(rate_key)
    if not isinstance(total, (int, float)) or total <= 0:
        errors.append(f"{where}: '{total_key}' must be a positive number")
        return
    if not isinstance(rate, (int, float)):
        errors.append(f"{where}: missing numeric '{rate_key}'")
        return
    # Wall fields are printed with %.6f, so both the total and the rate carry
    # up to 5e-7 of absolute rounding; bound the recomputed rate accordingly.
    half_ulp = 5e-7
    lo = count / (total + half_ulp) - half_ulp
    hi = count / max(total - half_ulp, 1e-12) + half_ulp
    if not lo <= rate <= hi:
        errors.append(
            f"{where}: '{rate_key}' is {rate!r}, but {count} / {total!r} "
            f"seconds allows only [{lo:.6g}, {hi:.6g}]")


def _check_quantiles(where, doc_part, p50_key, p99_key, errors):
    p50, p99 = doc_part.get(p50_key), doc_part.get(p99_key)
    for key, value in ((p50_key, p50), (p99_key, p99)):
        if not isinstance(value, (int, float)) or value < 0:
            errors.append(f"{where}: '{key}' must be a non-negative number")
            return
    if p50 > p99:
        errors.append(f"{where}: '{p50_key}' ({p50!r}) exceeds '{p99_key}' ({p99!r})")


def validate_serve(doc, path, errors):
    """Append ptilu-bench-serve-v1 violations for doc to errors."""
    if doc.get("backend") not in BACKENDS:
        errors.append(
            f"{path}: 'backend' is {doc.get('backend')!r}, want one of {sorted(BACKENDS)}")
    if not isinstance(doc.get("threads"), int) or doc.get("threads") < 0:
        errors.append(f"{path}: 'threads' must be a non-negative int")
    for key in ("smoke", "quick", "exact"):
        if not isinstance(doc.get(key), bool):
            errors.append(f"{path}: missing boolean '{key}'")
    if not isinstance(doc.get("workload"), str) or not doc.get("workload"):
        errors.append(f"{path}: missing 'workload'")
    for key in ("n", "nnz", "requests"):
        if not isinstance(doc.get(key), int) or doc.get(key) <= 0:
            errors.append(f"{path}: '{key}' must be a positive int")
    if not isinstance(doc.get("seed"), int) or doc.get("seed") < 0:
        errors.append(f"{path}: 'seed' must be a non-negative int")
    mean = doc.get("mean_interarrival_s")
    if not isinstance(mean, (int, float)) or mean <= 0:
        errors.append(f"{path}: 'mean_interarrival_s' must be a positive number")
    cache = doc.get("cache")
    if not isinstance(cache, dict):
        errors.append(f"{path}: missing 'cache' object")
    else:
        if not isinstance(cache.get("capacity"), int) or cache.get("capacity") < 1:
            errors.append(f"{path}: cache 'capacity' must be a positive int")
        for key in ("hits", "misses", "evictions"):
            if not isinstance(cache.get(key), int) or cache.get(key) < 0:
                errors.append(f"{path}: cache '{key}' must be a non-negative int")
    if not is_hex16(doc.get("payload_checksum")):
        errors.append(
            f"{path}: 'payload_checksum' must be 16 lowercase hex digits, "
            f"got {doc.get('payload_checksum')!r}")
    exact = doc.get("exact") is True
    requests = doc.get("requests") if isinstance(doc.get("requests"), int) else None

    benches = doc.get("apply_benches")
    if not isinstance(benches, list) or not benches:
        errors.append(f"{path}: 'apply_benches' must be a non-empty list")
        benches = []
    seen = set()
    for i, bench in enumerate(benches):
        where = f"{path}: apply_benches[{i}]"
        if not isinstance(bench, dict):
            errors.append(f"{where}: not an object")
            continue
        name = bench.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing name")
        elif name in seen:
            errors.append(f"{where}: duplicate name {name!r}")
        else:
            seen.add(name)
        batch_max = bench.get("batch_max")
        if not isinstance(batch_max, int) or batch_max < 1:
            errors.append(f"{where}: 'batch_max' must be a positive int")
            batch_max = None
        batches = bench.get("batches")
        if not isinstance(batches, int) or batches < 1:
            errors.append(f"{where}: 'batches' must be a positive int")
        elif requests is not None and batch_max is not None:
            # A FIFO server at cap k needs at least ceil(requests/k) batches
            # and never more than one batch per request.
            least = -(-requests // batch_max)
            if not least <= batches <= requests:
                errors.append(
                    f"{where}: 'batches' is {batches}, queueing bounds say "
                    f"[{least}, {requests}]")
        if not isinstance(bench.get("checksum"), (int, float)):
            errors.append(f"{where}: missing numeric checksum")
        if requests is not None:
            _check_rate(where, bench, requests, "modeled_total_s",
                        "modeled_solves_per_s", errors)
        _check_quantiles(where, bench, "modeled_p50_s", "modeled_p99_s", errors)
        wall_keys = [k for k in bench if k.startswith("wall_")]
        if exact and wall_keys:
            errors.append(
                f"{where}: --exact files must omit wall fields, found {sorted(wall_keys)}")
        elif not exact and wall_keys:
            if requests is not None:
                _check_rate(where, bench, requests, "wall_total_s",
                            "wall_solves_per_s", errors)
            _check_quantiles(where, bench, "wall_p50_s", "wall_p99_s", errors)

    streams = doc.get("stream_benches")
    if not isinstance(streams, list) or not streams:
        errors.append(f"{path}: 'stream_benches' must be a non-empty list")
        streams = []
    for i, bench in enumerate(streams):
        where = f"{path}: stream_benches[{i}]"
        if not isinstance(bench, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("streams", "solves"):
            if not isinstance(bench.get(key), int) or bench.get(key) < 1:
                errors.append(f"{where}: '{key}' must be a positive int")
        matvecs = bench.get("matvecs")
        if not isinstance(matvecs, int) or matvecs < 0:
            errors.append(f"{where}: 'matvecs' must be a non-negative int")
        elif isinstance(bench.get("solves"), int) and matvecs < bench["solves"]:
            errors.append(
                f"{where}: {matvecs} matvecs for {bench['solves']} solves — "
                f"every GMRES solve costs at least one matvec")
        if not isinstance(bench.get("checksum"), (int, float)):
            errors.append(f"{where}: missing numeric checksum")
        wall_keys = [k for k in bench if k.startswith("wall_")]
        if exact and wall_keys:
            errors.append(
                f"{where}: --exact files must omit wall fields, found {sorted(wall_keys)}")
        elif not exact and wall_keys and isinstance(bench.get("solves"), int):
            _check_rate(where, bench, bench["solves"], "wall_total_s",
                        "wall_solves_per_s", errors)

    dists = doc.get("dist_benches")
    if not isinstance(dists, list) or not dists:
        errors.append(f"{path}: 'dist_benches' must be a non-empty list")
        dists = []
    for i, bench in enumerate(dists):
        where = f"{path}: dist_benches[{i}]"
        if not isinstance(bench, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("procs", "k"):
            if not isinstance(bench.get(key), int) or bench.get(key) < 1:
                errors.append(f"{where}: '{key}' must be a positive int")
        batched = bench.get("modeled_batched_s")
        single = bench.get("modeled_single_s")
        speedup = bench.get("modeled_speedup")
        ok = True
        for key, value in (("modeled_batched_s", batched), ("modeled_single_s", single)):
            if not isinstance(value, (int, float)) or value <= 0:
                errors.append(f"{where}: '{key}' must be a positive number")
                ok = False
        if ok:
            if not isinstance(speedup, (int, float)):
                errors.append(f"{where}: missing numeric 'modeled_speedup'")
            else:
                want = single / batched
                if abs(speedup - want) > 1e-9 * max(1.0, abs(want)):
                    errors.append(
                        f"{where}: 'modeled_speedup' is {speedup!r}, recomputed {want!r}")
        for key in ("batched_messages", "single_messages"):
            if not isinstance(bench.get(key), int) or bench.get(key) < 0:
                errors.append(f"{where}: '{key}' must be a non-negative int")
        if (isinstance(bench.get("batched_messages"), int)
                and isinstance(bench.get("single_messages"), int)
                and bench["batched_messages"] > bench["single_messages"]):
            errors.append(
                f"{where}: batched sweep sent more messages "
                f"({bench['batched_messages']}) than the single-RHS solves "
                f"({bench['single_messages']}) — batching must amortize, not add")
        if not isinstance(bench.get("checksum"), (int, float)):
            errors.append(f"{where}: missing numeric checksum")


def compare_serve(baseline, current, args, errors):
    """serve-vs-serve: wall throughput ratio over matching deterministic plans."""
    base_backend = baseline["backend"]
    cur_backend = current["backend"]
    if base_backend != cur_backend and not args.allow_backend_mismatch:
        errors.append(
            f"execution backend mismatch (baseline {base_backend!r}, current "
            f"{cur_backend!r}): the throughput ratio would measure the backend, "
            f"not the change under test — pass --allow-backend-mismatch if that "
            f"is intended")
        return
    if baseline.get("payload_checksum") != current.get("payload_checksum"):
        errors.append(
            f"payload_checksum mismatch (baseline "
            f"{baseline.get('payload_checksum')!r}, current "
            f"{current.get('payload_checksum')!r}): the runs planned different "
            f"batches, so their wall throughput is not comparable")
        return
    if baseline.get("exact") or current.get("exact"):
        errors.append("--exact serve files carry no wall data to compare")
        return
    base_by_name = {b["name"]: b for b in baseline["apply_benches"]}
    rows = []
    for bench in current["apply_benches"]:
        base = base_by_name.get(bench["name"])
        if base is None:
            print(f"note: bench {bench['name']!r} has no baseline entry, skipped")
            continue
        ratio = bench["wall_solves_per_s"] / base["wall_solves_per_s"]
        rows.append((bench["name"], base["wall_solves_per_s"],
                     bench["wall_solves_per_s"], ratio))
    if not rows:
        errors.append("no comparable apply benches between the two files")
        return
    print(f"{'bench':<20} {'baseline':>12} {'current':>12} {'ratio':>8}")
    for name, base_rate, cur_rate, ratio in rows:
        print(f"{name:<20} {base_rate:>10.1f}/s {cur_rate:>10.1f}/s {ratio:>7.2f}x")


def validate(doc, path, errors):
    """Append schema violations for doc to errors."""
    if not isinstance(doc, dict):
        errors.append(f"{path}: top level is not a JSON object")
        return
    if doc.get("schema") == SCALE_SCHEMA:
        validate_scale(doc, path, errors)
        return
    if doc.get("schema") == SERVE_SCHEMA:
        validate_serve(doc, path, errors)
        return
    if doc.get("schema") != SCHEMA:
        errors.append(
            f"{path}: schema is {doc.get('schema')!r}, want one of "
            f"{sorted({SCHEMA, SCALE_SCHEMA, SERVE_SCHEMA})}")
        return
    if doc.get("backend") not in BACKENDS:
        errors.append(
            f"{path}: 'backend' is {doc.get('backend')!r}, want one of {sorted(BACKENDS)}")
    threads = doc.get("threads")
    if not isinstance(threads, int) or threads < 0:
        errors.append(f"{path}: 'threads' must be a non-negative int")
    if doc.get("variant") not in VARIANTS:
        errors.append(
            f"{path}: 'variant' is {doc.get('variant')!r}, want one of "
            f"{sorted(VARIANTS)}")
    # Blocked runs record their amalgamation knobs for reproducibility.
    if doc.get("variant") == "blocked":
        if not isinstance(doc.get("panel"), int) or doc.get("panel") < 1:
            errors.append(f"{path}: blocked runs need a positive int 'panel'")
        slack = doc.get("slack")
        if not isinstance(slack, (int, float)) or slack < 0:
            errors.append(f"{path}: blocked runs need a non-negative 'slack'")
    else:
        for key in ("panel", "slack"):
            if key in doc:
                errors.append(f"{path}: '{key}' only applies to blocked runs")
    if not isinstance(doc.get("quick"), bool):
        errors.append(f"{path}: missing boolean 'quick'")
    reps = doc.get("repetitions")
    if not isinstance(reps, int) or reps < 1:
        errors.append(f"{path}: 'repetitions' must be a positive int")
        reps = None
    benches = doc.get("benches")
    if not isinstance(benches, list) or not benches:
        errors.append(f"{path}: 'benches' must be a non-empty list")
        return
    seen = set()
    for i, bench in enumerate(benches):
        where = f"{path}: benches[{i}]"
        if not isinstance(bench, dict):
            errors.append(f"{where}: not an object")
            continue
        name = bench.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing name")
        elif name in seen:
            errors.append(f"{where}: duplicate name {name!r}")
        else:
            seen.add(name)
        if not isinstance(bench.get("workload"), str):
            errors.append(f"{where}: missing workload")
        if bench.get("kind") not in KINDS:
            errors.append(f"{where}: kind {bench.get('kind')!r} not in {sorted(KINDS)}")
        for key in ("n", "nnz"):
            if not isinstance(bench.get(key), int) or bench.get(key) <= 0:
                errors.append(f"{where}: '{key}' must be a positive int")
        if not isinstance(bench.get("checksum"), (int, float)):
            errors.append(f"{where}: missing numeric checksum")
        report_checksum = bench.get("report_checksum")
        if report_checksum is not None and not is_hex16(report_checksum):
            errors.append(
                f"{where}: report_checksum must be 16 lowercase hex digits, "
                f"got {report_checksum!r}")
        samples = bench.get("reps_s")
        if (not isinstance(samples, list) or not samples
                or not all(isinstance(s, (int, float)) and s > 0 for s in samples)):
            errors.append(f"{where}: 'reps_s' must be a list of positive numbers")
            continue
        if reps is not None and len(samples) != reps:
            errors.append(f"{where}: {len(samples)} samples, expected {reps}")
        ordered = sorted(samples)
        mid = len(ordered) // 2
        median = ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
        for key, want in (("median_s", median), ("min_s", ordered[0]), ("max_s", ordered[-1])):
            got = bench.get(key)
            if not isinstance(got, (int, float)):
                errors.append(f"{where}: missing numeric '{key}'")
            elif abs(got - want) > REL_EPS + 1e-6 * abs(want):
                errors.append(f"{where}: '{key}' is {got}, samples say {want}")


def compare(baseline, current, args, errors):
    base_backend = baseline["backend"]
    cur_backend = current["backend"]
    if base_backend != cur_backend and not args.allow_backend_mismatch:
        errors.append(
            f"execution backend mismatch (baseline {base_backend!r}, current "
            f"{cur_backend!r}): the speedup would measure the backend, not the "
            f"change under test — pass --allow-backend-mismatch if that is intended")
        return
    base_variant = baseline["variant"]
    cur_variant = current["variant"]
    variant_mismatch = base_variant != cur_variant
    if variant_mismatch and not args.allow_variant_mismatch:
        errors.append(
            f"kernel variant mismatch (baseline {base_variant!r}, current "
            f"{cur_variant!r}): the speedup would mix scalar and blocked kernels "
            f"— pass --allow-variant-mismatch if measuring the blocked path's "
            f"speedup is intended")
        return
    base_by_name = {b["name"]: b for b in baseline["benches"]}
    rows = []
    for bench in current["benches"]:
        name = bench["name"]
        base = base_by_name.get(name)
        if base is None:
            print(f"note: bench {name!r} has no baseline entry, skipped")
            continue
        same_result = abs(base["checksum"] - bench["checksum"]) <= 1e-9 * max(
            1.0, abs(base["checksum"]))
        if same_result and variant_mismatch:
            # The variant never reached this bench: both sides ran the same
            # code, so a ratio would only measure host noise.
            print(f"note: {name}: checksum equal across kernel variants — "
                  f"variant-independent, no speedup recorded")
            continue
        if not same_result:
            if variant_mismatch:
                # Blocked dropping is block-wise, so its factors (and hence
                # checksums) legitimately differ from scalar's.
                print(f"note: {name}: checksum differs (baseline "
                      f"{base['checksum']!r}, current {bench['checksum']!r}) — "
                      f"expected across kernel variants")
            else:
                errors.append(
                    f"{name}: checksum mismatch (baseline {base['checksum']!r}, "
                    f"current {bench['checksum']!r}) — builds disagree numerically")
                continue
        base_report = base.get("report_checksum")
        cur_report = bench.get("report_checksum")
        if (base_report is not None and cur_report is not None
                and base_report != cur_report):
            print(f"note: {name}: report_checksum differs (baseline {base_report}, "
                  f"current {cur_report}) — same numerical result, but the builds "
                  f"distribute modeled time/traffic across phases differently; "
                  f"compare the run reports for the critical-path shift")
        speedup = base["median_s"] / bench["median_s"]
        rows.append((name, bench["kind"], base["median_s"], bench["median_s"], speedup))
        bench["baseline_median_s"] = base["median_s"]
        bench["speedup"] = round(speedup, 4)
    if not rows:
        errors.append("no comparable benches between the two files")
        return
    print(f"{'bench':<20} {'kind':<14} {'baseline':>10} {'current':>10} {'speedup':>8}")
    for name, kind, base_s, cur_s, speedup in rows:
        print(f"{name:<20} {kind:<14} {base_s:>9.4f}s {cur_s:>9.4f}s {speedup:>7.2f}x")
    if args.require_speedup is not None:
        for name, kind, _, _, speedup in rows:
            if kind == "factorization" and speedup < args.require_speedup:
                errors.append(
                    f"{name}: speedup {speedup:.2f}x below required "
                    f"{args.require_speedup:.2f}x")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(current, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+",
                        help="one file to validate, or two with --compare")
    parser.add_argument("--compare", action="store_true",
                        help="treat files as BASELINE CURRENT and report speedups")
    parser.add_argument("--require-speedup", type=float, default=None,
                        help="fail unless every factorization bench reaches this speedup")
    parser.add_argument("--out", default=None,
                        help="with --compare: write CURRENT merged with baseline medians")
    parser.add_argument("--allow-backend-mismatch", action="store_true",
                        help="permit --compare across different execution backends "
                             "(e.g. to measure the threaded backend's speedup)")
    parser.add_argument("--allow-variant-mismatch", action="store_true",
                        help="permit --compare across different kernel variants "
                             "(e.g. to measure the blocked path's speedup over "
                             "scalar); checksum mismatches become notes")
    args = parser.parse_args()

    if args.compare and len(args.files) != 2:
        parser.error("--compare needs exactly two files: BASELINE CURRENT")
    if not args.compare and len(args.files) != 1:
        parser.error("validation mode takes exactly one file")

    errors = []
    docs = [load(path, errors) for path in args.files]
    for doc, path in zip(docs, args.files):
        if doc is not None:
            validate(doc, path, errors)
    if not errors and args.compare:
        families = [_schema_family(doc) for doc in docs]
        if families[0] != families[1]:
            errors.append(
                f"--compare refuses cross-family files ({families[0]} vs "
                f"{families[1]}): their metrics measure different things")
        elif families[0] == "scale":
            errors.append(
                "--compare supports wallclock and serve files only: bench_scale "
                "output is deterministic modeled time, so a run-over-run ratio "
                "is meaningless")
        elif families[0] == "serve":
            compare_serve(docs[0], docs[1], args, errors)
        else:
            compare(docs[0], docs[1], args, errors)

    if errors:
        return finish(errors)
    if not args.compare:
        doc = docs[0]
        if doc.get("schema") == SCALE_SCHEMA:
            npoints = sum(len(s["points"]) for s in doc["sweeps"])
            print(f"OK: {args.files[0]}: {len(doc['sweeps'])} sweeps, "
                  f"{npoints} points, workload {doc['workload']}, "
                  f"backend {doc['backend']}")
        elif doc.get("schema") == SERVE_SCHEMA:
            print(f"OK: {args.files[0]}: {len(doc['apply_benches'])} apply benches, "
                  f"{len(doc['stream_benches'])} stream benches, "
                  f"{len(doc['dist_benches'])} dist benches, "
                  f"{doc['requests']} requests, backend {doc['backend']}, "
                  f"exact={str(doc['exact']).lower()}")
        else:
            print(f"OK: {args.files[0]}: {len(doc['benches'])} benches, "
                  f"{doc['repetitions']} repetitions, "
                  f"backend {doc['backend']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
