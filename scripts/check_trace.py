#!/usr/bin/env python3
"""Validate Chrome trace_event JSON files produced by ptilu::sim::Trace.

Checks (stdlib only, no third-party dependencies):
  * the file is valid JSON: an object with a "traceEvents" list;
  * every event has the required keys (name, ph, pid, tid);
  * complete events ("ph": "X") carry numeric ts >= 0 and dur >= 0;
  * every pid that owns events has a process_name metadata record;
  * with --ranks N: the set of pids is exactly {0, ..., N-1};
  * per (pid, tid) track, the X events are sorted by ts and do not
    overlap (the simulator's per-rank timelines are sequential), up to a
    sub-nanosecond epsilon for decimal round-tripping.

Each file is validated on its own; the exit status is 0 when all pass and
1 when any has a violation (every violation of every file is listed).

Usage: check_trace.py [--ranks N] trace.json [trace.json ...]
"""

import argparse
import sys

import ptilu_check


def check_file(path, ranks, errors):
    """Validate one trace; its OK summary line, or None after recording errors."""
    before = len(errors)
    doc = ptilu_check.load(path, errors)
    checked = None if doc is None else ptilu_check.check_trace_events(doc, path, errors)
    if checked is None:
        return None
    named_pids, tracks = checked
    if ranks is not None and named_pids != set(range(ranks)):
        errors.append(f"{path}: expected rank pids {list(range(ranks))}, "
                      f"got {sorted(named_pids)}")
    if len(errors) > before:
        return None
    n_x = sum(len(spans) for spans in tracks.values())
    return f"OK: {path}: {n_x} spans on {len(tracks)} tracks, {len(named_pids)} named ranks"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("traces", nargs="+", metavar="trace",
                        help="trace_event JSON file(s) to validate")
    parser.add_argument("--ranks", type=int, default=None,
                        help="require exactly this many rank tracks (pids 0..N-1)")
    args = parser.parse_args(argv)

    errors = []
    for path in args.traces:
        summary = check_file(path, args.ranks, errors)
        if summary is not None:
            print(summary)
    return ptilu_check.finish(errors)


if __name__ == "__main__":
    sys.exit(main())
