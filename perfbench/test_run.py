#!/usr/bin/env python3
"""Self-tests of the harness's comparison and bookkeeping logic.

    python3 perfbench/test_run.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = {"end_to_end": [{"name": "discover_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "validate.oc.s", "unit": "s", "better": "lower"}]}


def noisy(base, rel, n=10):
    """n values around base, spread deterministically by +-rel."""
    return [base * (1 + rel * ((i * 7) % n - (n - 1) / 2) / n) for i in range(n)]


class Verdicts(unittest.TestCase):
    def test_identical_code_is_unchanged(self):
        a = noisy(4.0, 0.04)
        b = list(reversed(a))
        self.assertEqual(run.verdict(a, b, "lower", 0.1), "unchanged")

    def test_consistent_gain_is_better(self):
        a = noisy(4.0, 0.04)
        b = [x * 0.8 for x in a]
        self.assertEqual(run.verdict(a, b, "lower", 0.1), "better")

    def test_gain_on_a_higher_is_better_metric(self):
        a = noisy(100.0, 0.04)
        b = [x * 1.25 for x in a]
        self.assertEqual(run.verdict(a, b, "higher", 0.1), "better")
        self.assertEqual(run.verdict(b, a, "higher", 0.1), "worse")

    def test_gain_within_noise_is_not_better(self):
        a = noisy(4.0, 0.04)
        # Wins every pair but by less than the parent's interquartile range.
        b = [x - 0.01 for x in a]
        self.assertEqual(run.verdict(a, b, "lower", 0.1), "unchanged")

    def test_eight_of_ten_wins_are_not_enough(self):
        a = noisy(4.0, 0.04)
        b = [x * 0.8 for x in a]
        b[0], b[1] = a[0] * 1.01, a[1] * 1.01
        self.assertNotEqual(run.verdict(a, b, "lower", 0.1), "better")

    def test_regression_beyond_the_bound_is_worse(self):
        a = noisy(4.0, 0.04)
        b = [x * 1.2 for x in a]
        self.assertEqual(run.verdict(a, b, "lower", 0.1), "worse")

    def test_regression_within_the_bound_is_unchanged(self):
        a = noisy(4.0, 0.04)
        b = [x * 1.05 for x in a]
        self.assertEqual(run.verdict(a, b, "lower", 0.1), "unchanged")

    def test_spread_beyond_the_bound_is_unresolved(self):
        a = noisy(4.0, 0.6)
        b = list(reversed(a))
        self.assertEqual(run.verdict(a, b, "lower", 0.1), "unresolved")

    def test_wide_spread_but_every_run_better(self):
        a = noisy(10.0, 0.6)
        b = [x * 0.3 for x in a]
        self.assertEqual(run.verdict(a, b, "lower", 0.1), "better")


class Records(unittest.TestCase):
    def record(self, cores, values):
        runs = [{"workload": "w", "seed": s, "result": {"metrics": {"discover_s": {"value": v}}}}
                for s, v in enumerate(values)]
        return {"provenance": {"cores": cores}, "summary": {"w": {}}, "runs": runs}

    def write(self, d, name, record):
        path = os.path.join(d, name)
        with open(path, "w") as f:
            json.dump(record, f)
        return path

    def test_refuses_different_core_counts(self):
        with tempfile.TemporaryDirectory() as d:
            a = self.write(d, "a.json", self.record(2, noisy(4.0, 0.04)))
            b = self.write(d, "b.json", self.record(4, noisy(4.0, 0.04)))
            self.assertEqual(run.compare(a, b, SPEC), 2)
            self.assertEqual(run.compare(a, a, SPEC), 0)

    def test_pairs_by_seed(self):
        a = self.record(2, [1.0, 2.0, 3.0])["runs"]
        b = self.record(2, [4.0, 5.0])["runs"]
        self.assertEqual(run.pair_values(a, b, "w", "discover_s"), ([1.0, 2.0], [4.0, 5.0]))

    def test_seed_ranges(self):
        self.assertEqual(run.parse_seeds("1-3,7"), [1, 2, 3, 7])

    def test_summary_matches_python_quartiles(self):
        s = run.summarize([float(x) for x in range(1, 11)])
        self.assertEqual((s["q1"], s["median"], s["q3"]), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(s["spread"], 5.5 / 5.5)

    def test_result_line_must_carry_the_declared_metrics(self):
        good = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"discover_s": {"value": 1.5, "unit": "s"}}}
        run.check_result(json.dumps(good), SPEC, trace=0)
        with self.assertRaises(ValueError):
            run.check_result(json.dumps(good), SPEC, trace=1)
        bad = dict(good, extra=1)
        with self.assertRaises(ValueError):
            run.check_result(json.dumps(bad), SPEC, trace=0)


if __name__ == "__main__":
    unittest.main()
