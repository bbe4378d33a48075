#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file produced by ptilu::sim::Trace.

Checks (stdlib only, no third-party dependencies):
  * the file is valid JSON: an object with a "traceEvents" list;
  * every event has the required keys (name, ph, pid, tid);
  * complete events ("ph": "X") carry numeric ts >= 0 and dur >= 0;
  * every pid that owns events has a process_name metadata record;
  * with --ranks N: the set of pids is exactly {0, ..., N-1};
  * per (pid, tid) track, the X events are sorted by ts and do not
    overlap (the simulator's per-rank timelines are sequential), up to a
    sub-nanosecond epsilon for decimal round-tripping.

Exit status 0 on success, 1 on any violation (all violations are listed).

Usage: check_trace.py [--ranks N] trace.json
"""

import argparse
import sys

import ptilu_check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="trace_event JSON file to validate")
    parser.add_argument("--ranks", type=int, default=None,
                        help="require exactly this many rank tracks (pids 0..N-1)")
    args = parser.parse_args()

    errors = []
    doc = ptilu_check.load(args.trace, errors)
    checked = None if doc is None else ptilu_check.check_trace_events(doc, args.trace, errors)
    if checked is None:
        return ptilu_check.finish(errors)
    named_pids, tracks = checked
    if args.ranks is not None and named_pids != set(range(args.ranks)):
        errors.append(f"{args.trace}: expected rank pids {list(range(args.ranks))}, "
                      f"got {sorted(named_pids)}")
    if errors:
        return ptilu_check.finish(errors)
    n_x = sum(len(spans) for spans in tracks.values())
    print(f"OK: {args.trace}: {n_x} spans on {len(tracks)} tracks, "
          f"{len(named_pids)} named ranks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
