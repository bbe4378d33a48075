#!/usr/bin/env python3
"""Unit tests for ptilu_check.py, the validators' shared core.

Stdlib only (unittest); exit 0 when every case passes.
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ptilu_check  # noqa: E402


def span(name, ts, dur, pid=0, tid=0):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": pid, "tid": tid}


def process(pid):
    return {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"rank {pid}"}}


class FirstArgmax(unittest.TestCase):
    def test_tie_goes_to_lowest_index(self):
        self.assertEqual(ptilu_check.first_argmax([1.0, 3.0, 2.0, 3.0]), 1)
        self.assertEqual(ptilu_check.first_argmax([0.0, 0.0, 0.0]), 0)


class Rollup(unittest.TestCase):
    def test_zero_busy_imbalance_is_zero(self):
        self.assertEqual(ptilu_check.busy_imbalance([0.0, 0.0]), 0.0)
        self.assertEqual(ptilu_check.busy_imbalance([3.0, 1.0]), 1.5)

    def test_rollup_identities(self):
        good = {"elapsed_s": 2.0, "busy_s": [2.0, 1.0], "idle_s": [0.0, 1.0],
                "elections": [1, 0], "imbalance": 2.0 / 1.5}
        errors = []
        ptilu_check.check_rollup("r", good, 2.0, [2.0, 1.0], errors, elections=[1, 0])
        self.assertEqual(errors, [])
        idle_drift = dict(good, idle_s=[0.0, 0.5])
        ptilu_check.check_rollup("r", idle_drift, 2.0, [2.0, 1.0], errors)
        self.assertEqual(len(errors), 1)
        self.assertIn("idle_s[1]", errors[0])

    def test_imbalance_comparison_is_the_callers(self):
        near = {"elapsed_s": 1.0, "busy_s": [1.0, 1.0], "idle_s": [0.0, 0.0],
                "imbalance": 1.0 + 1e-12}
        exact_errors, close_errors = [], []
        ptilu_check.check_rollup("r", near, 1.0, [1.0, 1.0], exact_errors)
        ptilu_check.check_rollup("r", near, 1.0, [1.0, 1.0], close_errors,
                                 same=lambda a, b: abs(a - b) <= 1e-9)
        self.assertEqual(len(exact_errors), 1)
        self.assertEqual(close_errors, [])


class Hex16(unittest.TestCase):
    def test_accepts_sixteen_lowercase_hex_digits(self):
        self.assertTrue(ptilu_check.is_hex16("0123456789abcdef"))

    def test_rejects_other_strings(self):
        for value in ("0123456789ABCDEF", "0123456789abcde", "0123456789abcdef0",
                      "0123456789abcdeg", 0x0123456789ABCDEF, None):
            self.assertFalse(ptilu_check.is_hex16(value), value)


class TraceEvents(unittest.TestCase):
    def check(self, events):
        errors = []
        result = ptilu_check.check_trace_events({"traceEvents": events}, "t", errors)
        return result, errors

    def test_sequential_spans_pass(self):
        result, errors = self.check([process(0), span("a", 0.0, 1.0), span("b", 1.0, 2.0)])
        self.assertEqual(errors, [])
        named, tracks = result
        self.assertEqual(named, {0})
        self.assertEqual(len(tracks[(0, 0)]), 2)

    def test_overlap_is_detected(self):
        _, errors = self.check([process(0), span("a", 0.0, 2.0), span("b", 1.0, 1.0)])
        self.assertEqual(len(errors), 1)
        self.assertIn("overlaps", errors[0])

    def test_other_tracks_may_overlap(self):
        _, errors = self.check([process(0), span("a", 0.0, 2.0), span("b", 1.0, 1.0, tid=1)])
        self.assertEqual(errors, [])

    def test_unnamed_pid_and_bad_span_are_reported(self):
        _, errors = self.check([span("a", 0.0, 1.0, pid=3), span("b", -1.0, 1.0, pid=3)])
        self.assertTrue(any("ts/dur" in e for e in errors), errors)
        self.assertTrue(any("pid 3 has events but no process_name" in e for e in errors),
                        errors)

    def test_not_a_trace(self):
        errors = []
        self.assertIsNone(ptilu_check.check_trace_events([], "t", errors))
        self.assertEqual(len(errors), 1)


if __name__ == "__main__":
    unittest.main()
