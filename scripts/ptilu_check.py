"""Shared core of the ptilu document validators (stdlib only).

check_report.py, check_serve_report.py, check_bench_json.py and
check_trace.py import this module for what they have in common: loading a
JSON file, printing the verdict, the value predicates, the straggler rule
and busy/idle/imbalance rollup of the C++ report core
(include/ptilu/support/report.hpp), and the trace_event structure check.
"""

import json
import operator

EPSILON_US = 1e-3  # trace_event timestamps are microseconds; ~1 ns slack


def load(path, errors):
    """The JSON document at path, or None after recording why it is unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        errors.append(f"{path}: cannot parse: {exc}")
        return None


def finish(errors):
    """Print one FAIL line per violation and their count; the exit status."""
    for error in errors:
        print(f"FAIL: {error}")
    if errors:
        print(f"{len(errors)} violation(s)")
    return 1 if errors else 0


def is_num(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_hex16(value):
    """16 lowercase hex digits: how checksums and fingerprints are written."""
    return (isinstance(value, str) and len(value) == 16
            and all(c in "0123456789abcdef" for c in value))


def first_argmax(values):
    """Index of the first maximum: ties go to the lowest index."""
    winner = 0
    for i in range(1, len(values)):
        if values[i] > values[winner]:
            winner = i
    return winner


def busy_imbalance(busy):
    """Max busy over mean busy, folded in lane order like the C++ report
    core, and 0 when the mean is 0 (no lane did any work)."""
    busy_sum = 0.0
    busy_max = 0.0
    for value in busy:
        busy_sum += value
        busy_max = max(busy_max, value)
    mean = busy_sum / float(len(busy)) if busy else 0.0
    return busy_max / mean if mean > 0.0 else 0.0


def check_rollup(where, rollup, elapsed, busy, errors, elections=None,
                 same=operator.eq):
    """The identities of one busy/idle rollup (a run-report phase, a serve
    lane or stream rollup) against the elapsed time, per-lane busy and
    election tally the caller recomputed: elapsed_s, busy_s and elections
    as recorded, 0 <= busy <= elapsed, idle_s == elapsed - busy bit-exactly,
    and an imbalance that is `same` as busy_imbalance(busy)."""
    for key, want in (("elapsed_s", elapsed), ("busy_s", busy), ("elections", elections)):
        if want is not None and rollup.get(key) != want:
            errors.append(f"{where}: '{key}' is {rollup.get(key)!r}, recomputed {want!r}")
    idle = rollup.get("idle_s")
    if not isinstance(idle, list) or len(idle) != len(busy):
        errors.append(f"{where}: 'idle_s' must have {len(busy)} entries")
        return
    for r, value in enumerate(busy):
        if not 0.0 <= value <= elapsed:
            errors.append(f"{where}: busy_s[{r}] = {value!r} outside [0, {elapsed!r}]")
        if idle[r] != elapsed - value:
            errors.append(
                f"{where}: idle_s[{r}] = {idle[r]!r} != elapsed - busy = "
                f"{elapsed - value!r} (identity must be bit-exact)")
    want = busy_imbalance(busy)
    got = rollup.get("imbalance")
    if not is_num(got) or not same(got, want):
        errors.append(f"{where}: 'imbalance' is {got!r}, recomputed {want!r}")


def check_trace_events(doc, path, errors):
    """Structure of a Chrome trace_event document: a traceEvents list whose
    events carry name/ph/pid/tid, only metadata ("M") and complete ("X")
    events, non-negative numeric ts/dur on every span, process_name
    metadata for every pid, and per (pid, tid) track spans that do not
    overlap in file order (up to EPSILON_US of decimal round-trip).

    Returns (named pids, {(pid, tid): [span events]}), or None when doc is
    not a trace_event object at all."""
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        errors.append(f"{path}: not a trace_event object with a traceEvents list")
        return None
    named_pids = set()  # pids with a process_name metadata record
    event_pids = set()  # pids owning any event
    tracks = {}
    for i, event in enumerate(doc["traceEvents"]):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        missing = [key for key in ("name", "ph", "pid", "tid") if key not in event]
        if missing:
            errors.append(f"{where}: missing required keys {missing}")
            continue
        pid, tid, phase = event["pid"], event["tid"], event["ph"]
        if not isinstance(pid, int) or not isinstance(tid, int):
            errors.append(f"{where}: pid/tid must be ints")
            continue
        event_pids.add(pid)
        if phase == "M":
            if event["name"] == "process_name":
                named_pids.add(pid)
        elif phase == "X":
            if not all(is_num(event.get(key)) and event[key] >= 0 for key in ("ts", "dur")):
                errors.append(f"{where}: ts/dur must be non-negative numbers")
                continue
            tracks.setdefault((pid, tid), []).append(event)
        else:
            errors.append(f"{where}: unexpected phase {phase!r}")
    for pid in sorted(event_pids - named_pids):
        errors.append(f"{path}: pid {pid} has events but no process_name metadata")
    for (pid, tid), spans in sorted(tracks.items()):
        prev_end = 0.0
        prev_name = None
        for span in spans:
            if span["ts"] < prev_end - EPSILON_US:
                errors.append(
                    f"{path}: pid {pid} tid {tid}: span {span['name']!r} at "
                    f"ts={span['ts']} overlaps previous span {prev_name!r} "
                    f"ending at {prev_end}")
            prev_end = max(prev_end, span["ts"] + span["dur"])
            prev_name = span["name"]
    return named_pids, tracks
