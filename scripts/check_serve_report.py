#!/usr/bin/env python3
"""Validate ptilu-serve-report-v1 files (bench_serve --serve-report output).

The serve report is a self-checking artifact: it carries the inputs of
every number it states, so this checker re-derives the whole document
from first principles and demands bit-for-bit agreement (doubles travel
as %.17g, which round-trips IEEE-754 binary64; Python floats are the
same doubles, and max/+/* on them reproduce the C++ folds exactly).

Identities enforced, per apply section:
  * the batch plan is a FIFO partition of the arrival schedule, and every
    batch's start_s reproduces the queueing recursion
    start = max(server_free, last member arrival) bit-exactly, with
    arrival_gated recording whether the server sat idle;
  * queue_wait_s[c] == start_s - arrival_s[c] exactly;
  * the decomposition re-sums: service_s == cache_resolve_s +
    (stream_shared_s + sum of column_solve_s folded in column order);
  * straggler_column is the FIRST argmax of column_solve_s;
  * the lane rollup reproduces exactly: busy from per-lane folds, elapsed
    from per-batch maxima, idle = elapsed - busy, elections tallied from
    the per-batch winners, imbalance = max busy / mean busy (0 when no
    lane did any work);
  * the histogram is rebuilt latency-by-latency from the batch details
    (latency = start + service - arrival, bucketed via math.frexp with
    the spec's dyadic edges) and must match the serialized buckets,
    underflow, overflow, and total (which equals the requests served);
  * hist_p50/p99 reproduce the nearest-rank bucket walk, exact_p50/p99
    reproduce the nearest-rank sorted-sample read, and the histogram
    quantiles bound the exact ones within the documented resolution
    (exact < hist <= exact * (1 + 1/sub_buckets) for regular buckets).

Per stream section: every round's cost_s[s] == matvecs[s] * step_s, the
round barriers at its first-argmax straggler, and the per-stream rollup
identities mirror the lane ones.

Telemetry counters are re-tallied: requests and batches from the apply
sections, straggler elections = batches + stream rounds, histogram
merges = sections * (shards - 1).

The report must carry no backend/threads identity (it is byte-comparable
across backends by contract) and no wall_* fields.

With --trace TRACE.json the serve lifecycle Chrome trace is additionally
validated: trace_event structure (as check_trace.py checks it: named
processes, non-negative and non-overlapping spans per track), the "serve"
span category, and every lifecycle span kind present.

Exit status 0 on success, 1 on any violation.

Usage:
  check_serve_report.py REPORT.json [--trace TRACE.json]
"""

import argparse
import math
import sys

from ptilu_check import (check_rollup, check_trace_events, finish, first_argmax,
                         is_hex16, is_num, load)

SCHEMA = "ptilu-serve-report-v1"


class HistSpec:
    """Bucket geometry mirror of serve::LatencyHistogram (bit-exact)."""

    def __init__(self, sub, min_exp, max_exp):
        self.sub = sub
        self.min_exp = min_exp
        self.max_exp = max_exp
        self.count = (max_exp - min_exp) * sub

    def lower(self, index):
        octave = self.min_exp + index // self.sub
        return math.ldexp(1.0 + (index % self.sub) / self.sub, octave)

    def upper(self, index):
        return self.lower(index + 1)

    def bucket_index(self, v):
        if v < self.lower(0):
            return -1
        if v >= math.ldexp(1.0, self.max_exp):
            return self.count
        frac, exp2 = math.frexp(v)  # v = frac * 2**exp2, frac in [0.5, 1)
        octave = exp2 - 1
        # (frac*2 - 1) * sub is exact for power-of-two sub (Sterbenz).
        return (octave - self.min_exp) * self.sub + int((frac * 2.0 - 1.0) * self.sub)

    def quantile(self, q, total, underflow, buckets):
        """Nearest-rank walk over sparse [index, count] pairs."""
        rank = max(1, min(math.ceil(q * float(total)), total))
        cum = underflow
        if rank <= cum:
            return self.lower(0)
        for index, count in buckets:
            cum += count
            if rank <= cum:
                return self.upper(index)
        return math.ldexp(1.0, self.max_exp)


def exact_quantile(ordered, q):
    """serve::SortedSample::quantile: nearest-rank ceil(q*N), clamped."""
    rank = math.ceil(q * float(len(ordered)))
    index = 0 if rank == 0 else rank - 1
    return ordered[min(index, len(ordered) - 1)]


def check_apply_section(section, spec, shards, path, i, errors):
    """Returns (requests_covered, batches) for the telemetry re-tally."""
    where = f"{path}: apply[{i}]"
    for key in ("cap", "n"):
        if not isinstance(section.get(key), int) or section.get(key) < 1:
            errors.append(f"{where}: '{key}' must be a positive int")
    if not is_hex16(section.get("fingerprint")):
        errors.append(f"{where}: 'fingerprint' must be 16 lowercase hex digits")
    costs = section.get("costs")
    if not isinstance(costs, dict):
        errors.append(f"{where}: missing 'costs' object")
        return 0, 0
    for key in ("cache_resolve_s", "stream_shared_s", "column_solve_s"):
        if not is_num(costs.get(key)) or costs.get(key) < 0:
            errors.append(f"{where}: costs '{key}' must be a non-negative number")
            return 0, 0
    batches = section.get("batches")
    if not isinstance(batches, list) or not batches:
        errors.append(f"{where}: 'batches' must be a non-empty list")
        return 0, 0
    cap = section.get("cap") if isinstance(section.get("cap"), int) else 10**9

    server_free = 0.0
    covered = 0
    latencies = []
    lane_busy = [0.0] * cap
    lane_elapsed = 0.0
    lane_elections = [0] * cap
    for b, batch in enumerate(batches):
        bwhere = f"{where}: batches[{b}]"
        if not isinstance(batch, dict):
            errors.append(f"{bwhere}: not an object")
            return 0, 0
        count = batch.get("count")
        if not isinstance(count, int) or count < 1 or count > cap:
            errors.append(f"{bwhere}: 'count' must be an int in [1, cap]")
            return 0, 0
        if batch.get("first") != covered:
            errors.append(
                f"{bwhere}: 'first' is {batch.get('first')!r} — the plan must be "
                f"a FIFO partition (expected {covered})")
            return 0, 0
        arrivals = batch.get("arrival_s")
        waits = batch.get("queue_wait_s")
        cols = batch.get("column_solve_s")
        for key, vec in (("arrival_s", arrivals), ("queue_wait_s", waits),
                         ("column_solve_s", cols)):
            if (not isinstance(vec, list) or len(vec) != count
                    or not all(is_num(v) for v in vec)):
                errors.append(f"{bwhere}: '{key}' must list {count} numbers")
                return 0, 0
        if any(a2 <= a1 for a1, a2 in zip(arrivals, arrivals[1:])):
            errors.append(f"{bwhere}: member arrivals must be strictly increasing")
        # The queueing recursion, re-run bit-exactly.
        start = max(server_free, arrivals[-1])
        if batch.get("start_s") != start:
            errors.append(
                f"{bwhere}: 'start_s' is {batch.get('start_s')!r}, the queue "
                f"recursion says {start!r}")
        gated = arrivals[-1] > server_free
        if batch.get("arrival_gated") is not gated:
            errors.append(
                f"{bwhere}: 'arrival_gated' is {batch.get('arrival_gated')!r}, "
                f"recursion says {gated!r}")
        if not isinstance(batch.get("cache_hit"), bool):
            errors.append(f"{bwhere}: missing boolean 'cache_hit'")
        for c in range(count):
            want = start - arrivals[c]
            if waits[c] != want:
                errors.append(
                    f"{bwhere}: queue_wait_s[{c}] is {waits[c]!r}, "
                    f"start - arrival is {want!r}")
        # The decomposition re-sums in the documented fold order.
        acc = costs["stream_shared_s"]
        for c in range(count):
            acc += cols[c]
        service = batch.get("service_s")
        if service != costs["cache_resolve_s"] + acc:
            errors.append(
                f"{bwhere}: 'service_s' is {service!r}, decomposition re-sums to "
                f"{costs['cache_resolve_s'] + acc!r}")
            return 0, 0
        winner = first_argmax(cols)
        if batch.get("straggler_column") != winner:
            errors.append(
                f"{bwhere}: 'straggler_column' is {batch.get('straggler_column')!r}, "
                f"first-argmax of column_solve_s is {winner}")
        # Lane rollup folds, in the exact C++ order.
        lane_elapsed += cols[winner] if cols else 0.0
        for c in range(count):
            lane_busy[c] += cols[c]
        lane_elections[winner] += 1
        done = start + service
        for c in range(count):
            latencies.append(done - arrivals[c])
        server_free = done
        covered += count

    lanes = section.get("lanes")
    if not isinstance(lanes, dict):
        errors.append(f"{where}: missing 'lanes' rollup")
    else:
        check_rollup(f"{where}: lanes", lanes, lane_elapsed, lane_busy, errors,
                     elections=lane_elections)

    # Rebuild the histogram from the latencies the batch details imply.
    latency = section.get("latency")
    if not isinstance(latency, dict) or not isinstance(latency.get("hist"), dict):
        errors.append(f"{where}: missing 'latency.hist'")
        return covered, len(batches)
    hist = latency["hist"]
    rebuilt = {}
    underflow = overflow = 0
    for value in latencies:
        index = spec.bucket_index(value)
        if index < 0:
            underflow += 1
        elif index >= spec.count:
            overflow += 1
        else:
            rebuilt[index] = rebuilt.get(index, 0) + 1
    want_buckets = [[k, rebuilt[k]] for k in sorted(rebuilt)]
    hwhere = f"{where}: latency.hist"
    if hist.get("total") != covered:
        errors.append(
            f"{hwhere}: 'total' is {hist.get('total')!r}, the section served "
            f"{covered} requests — bucket counts must sum to requests")
    if hist.get("underflow") != underflow or hist.get("overflow") != overflow:
        errors.append(
            f"{hwhere}: under/overflow is ({hist.get('underflow')!r}, "
            f"{hist.get('overflow')!r}), rebuilt ({underflow}, {overflow})")
    if hist.get("buckets") != want_buckets:
        errors.append(
            f"{hwhere}: serialized buckets differ from the histogram rebuilt "
            f"from the batch details")
        return covered, len(batches)

    buckets = hist["buckets"]
    ordered = sorted(latencies)
    bound = 1.0 + 1.0 / spec.sub
    for q, hist_key, exact_key in ((0.50, "hist_p50", "exact_p50"),
                                   (0.99, "hist_p99", "exact_p99")):
        hist_q = spec.quantile(q, covered, underflow, buckets)
        exact_q = exact_quantile(ordered, q)
        if latency.get(hist_key) != hist_q:
            errors.append(
                f"{where}: '{hist_key}' is {latency.get(hist_key)!r}, the bucket "
                f"walk says {hist_q!r}")
        if latency.get(exact_key) != exact_q:
            errors.append(
                f"{where}: '{exact_key}' is {latency.get(exact_key)!r}, the "
                f"sorted sample says {exact_q!r}")
        # Resolution bound, for quantiles landing in regular buckets.
        if hist_q not in (spec.lower(0), math.ldexp(1.0, spec.max_exp)):
            if not exact_q < hist_q <= exact_q * bound:
                errors.append(
                    f"{where}: '{hist_key}' {hist_q!r} violates the resolution "
                    f"bound around exact {exact_q!r} (factor {bound!r})")
    return covered, len(batches)


def check_stream_section(stream, path, errors):
    """Returns the round count for the telemetry re-tally."""
    where = f"{path}: stream"
    streams = stream.get("streams")
    solves = stream.get("solves")
    step = stream.get("step_s")
    if not isinstance(streams, int) or streams < 1:
        errors.append(f"{where}: 'streams' must be a positive int")
        return 0
    if not isinstance(solves, int) or solves < 1:
        errors.append(f"{where}: 'solves' must be a positive int")
        return 0
    if not is_num(step) or step <= 0:
        errors.append(f"{where}: 'step_s' must be a positive number")
        return 0
    rounds = stream.get("rounds")
    want_rounds = -(-solves // streams)
    if not isinstance(rounds, list) or len(rounds) != want_rounds:
        errors.append(
            f"{where}: expected {want_rounds} rounds (ceil(solves / streams)), "
            f"got {len(rounds) if isinstance(rounds, list) else rounds!r}")
        return 0
    elapsed = 0.0
    busy = [0.0] * streams
    elections = [0] * streams
    for r, rnd in enumerate(rounds):
        rwhere = f"{where}: rounds[{r}]"
        matvecs = rnd.get("matvecs")
        cost = rnd.get("cost_s")
        for key, vec in (("matvecs", matvecs), ("cost_s", cost)):
            if not isinstance(vec, list) or len(vec) != streams:
                errors.append(f"{rwhere}: '{key}' must list {streams} entries")
                return 0
        for s in range(streams):
            q = r * streams + s
            if q >= solves:
                if matvecs[s] != 0 or cost[s] != 0.0:
                    errors.append(
                        f"{rwhere}: stream {s} has no solve in the tail round "
                        f"but carries work")
                continue
            if not isinstance(matvecs[s], int) or matvecs[s] < 0:
                errors.append(f"{rwhere}: matvecs[{s}] must be a non-negative int")
                return 0
            want = float(matvecs[s]) * step
            if cost[s] != want:
                errors.append(
                    f"{rwhere}: cost_s[{s}] is {cost[s]!r}, "
                    f"matvecs * step_s is {want!r}")
        winner = first_argmax(cost)
        if rnd.get("straggler") != winner:
            errors.append(
                f"{rwhere}: 'straggler' is {rnd.get('straggler')!r}, first-argmax "
                f"of cost_s is {winner}")
        if rnd.get("elapsed_s") != cost[winner]:
            errors.append(
                f"{rwhere}: 'elapsed_s' is {rnd.get('elapsed_s')!r}, the "
                f"straggler's cost is {cost[winner]!r}")
        elapsed += cost[winner]
        for s in range(streams):
            busy[s] += cost[s]
        elections[winner] += 1
    rollup = stream.get("rollup")
    if not isinstance(rollup, dict):
        errors.append(f"{where}: missing 'rollup'")
    else:
        check_rollup(f"{where}: rollup", rollup, elapsed, busy, errors,
                     elections=elections)
    return len(rounds)


def validate_report(doc, path, errors):
    if not isinstance(doc, dict):
        errors.append(f"{path}: top level is not a JSON object")
        return
    if doc.get("schema") != SCHEMA:
        errors.append(f"{path}: schema is {doc.get('schema')!r}, want {SCHEMA!r}")
        return
    # Backend/thread identity and wall fields are banned: the report must
    # be byte-identical across backends.
    def scan_banned(node, where):
        if isinstance(node, dict):
            for key, value in node.items():
                if key in ("backend", "threads") or key.startswith("wall_"):
                    errors.append(
                        f"{where}: field {key!r} is banned — the serve report "
                        f"must be backend- and wall-clock-free")
                scan_banned(value, f"{where}.{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                scan_banned(value, f"{where}[{i}]")
    scan_banned(doc, path)

    if not isinstance(doc.get("run"), dict):
        errors.append(f"{path}: missing 'run' object")
    spec_obj = doc.get("histogram_spec")
    if not isinstance(spec_obj, dict):
        errors.append(f"{path}: missing 'histogram_spec'")
        return
    sub = spec_obj.get("sub_buckets")
    min_exp = spec_obj.get("min_exp")
    max_exp = spec_obj.get("max_exp")
    shards = spec_obj.get("shards")
    if (not isinstance(sub, int) or sub < 1 or (sub & (sub - 1)) != 0
            or not isinstance(min_exp, int) or not isinstance(max_exp, int)
            or min_exp >= max_exp):
        errors.append(
            f"{path}: histogram_spec needs power-of-two 'sub_buckets' and "
            f"int octaves min_exp < max_exp")
        return
    spec = HistSpec(sub, min_exp, max_exp)
    if spec_obj.get("bucket_count") != spec.count:
        errors.append(
            f"{path}: 'bucket_count' is {spec_obj.get('bucket_count')!r}, the "
            f"octave range implies {spec.count}")
    if spec_obj.get("relative_error_bound") != 1.0 / sub:
        errors.append(
            f"{path}: 'relative_error_bound' is "
            f"{spec_obj.get('relative_error_bound')!r}, want {1.0 / sub!r}")
    if not isinstance(shards, int) or shards < 1:
        errors.append(f"{path}: histogram_spec 'shards' must be a positive int")
        shards = 1

    sections = doc.get("apply")
    if not isinstance(sections, list) or not sections:
        errors.append(f"{path}: 'apply' must be a non-empty list")
        return
    total_requests = 0
    total_batches = 0
    for i, section in enumerate(sections):
        if not isinstance(section, dict):
            errors.append(f"{path}: apply[{i}]: not an object")
            continue
        covered, nbatches = check_apply_section(section, spec, shards, path, i, errors)
        total_requests += covered
        total_batches += nbatches

    rounds = 0
    if "stream" in doc:
        if not isinstance(doc["stream"], dict):
            errors.append(f"{path}: 'stream' must be an object")
        else:
            rounds = check_stream_section(doc["stream"], path, errors)

    telemetry = doc.get("telemetry")
    if not isinstance(telemetry, dict):
        errors.append(f"{path}: missing 'telemetry' counters")
        return
    for key, want in (("requests", total_requests), ("batches", total_batches),
                      ("straggler_elections", total_batches + rounds),
                      ("histogram_merges", len(sections) * (shards - 1))):
        if telemetry.get(key) != want:
            errors.append(
                f"{path}: telemetry '{key}' is {telemetry.get(key)!r}, "
                f"re-tally says {want}")


def validate_trace(doc, path, errors):
    """The serve lifecycle Chrome trace: trace_event structure, the span
    category, and every lifecycle span kind present."""
    checked = check_trace_events(doc, path, errors)
    if checked is None:
        return
    span_names = set()
    for spans in checked[1].values():
        for span in spans:
            if span.get("cat") != "serve":
                errors.append(f"{path}: span {span['name']!r} category must be 'serve'")
            span_names.add(span["name"])
    for name in ("wait", "solve", "resolve", "solve batch"):
        if span_names and name not in span_names:
            errors.append(f"{path}: no {name!r} spans — lifecycle export incomplete")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("report", help="ptilu-serve-report-v1 JSON file")
    parser.add_argument("--trace", default=None,
                        help="also validate a bench_serve --serve-trace file")
    args = parser.parse_args()

    errors = []
    doc = load(args.report, errors)
    if doc is not None:
        validate_report(doc, args.report, errors)
    if args.trace is not None:
        trace = load(args.trace, errors)
        if trace is not None:
            validate_trace(trace, args.trace, errors)
    if errors:
        return finish(errors)
    napply = len(doc["apply"])
    nrounds = len(doc.get("stream", {}).get("rounds", []))
    print(f"OK: {args.report}: {napply} apply sections, "
          f"{doc['telemetry']['batches']} batches, "
          f"{doc['telemetry']['requests']} requests, {nrounds} stream rounds"
          + (f"; trace {args.trace} OK" if args.trace else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
