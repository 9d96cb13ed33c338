"""Tests for the benchmark's own statistics and the metrics run.py derives
from raw samples, on fixed inputs.

Run: python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import benchstats  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_exact_ranks(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(benchstats.percentile(values, 0), 1)
        self.assertEqual(benchstats.percentile(values, 50), 3)
        self.assertEqual(benchstats.percentile(values, 100), 5)

    def test_interpolates_between_ranks(self):
        self.assertAlmostEqual(benchstats.percentile([10, 20, 30, 40], 50), 25)
        # rank = 9 * 0.9 = 8.1 -> 9 + 0.1 * (10 - 9)
        self.assertAlmostEqual(
            benchstats.percentile(list(range(1, 11)), 90), 9.1)

    def test_p90_of_hundred_leaves_ten_beyond(self):
        values = list(range(100))
        p90 = benchstats.percentile(values, 90)
        self.assertAlmostEqual(p90, 89.1)
        self.assertEqual(sum(v > p90 for v in values), 10)

    def test_single_value(self):
        self.assertEqual(benchstats.percentile([7.5], 90), 7.5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            benchstats.percentile([], 50)
        with self.assertRaises(ValueError):
            benchstats.percentile([1], 101)


class MedianQuartileTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_exclusive_method(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        # exclusive method: positions (n + 1) * k / 4 = 2.75 and 8.25
        self.assertEqual(benchstats.quartiles(values), (2.75, 8.25))

    def test_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertAlmostEqual(benchstats.spread(values), 5.5 / 5.5)
        self.assertEqual(benchstats.spread([2.0] * 10), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(benchstats.covered([], 0, 10), 0)
        self.assertEqual(benchstats.covered([(2, 4), (3, 6)], 0, 10), 4)
        self.assertEqual(benchstats.covered([(-5, 2), (8, 20)], 0, 10), 4)
        self.assertEqual(benchstats.covered([(1, 2), (1, 2)], 0, 10), 1)

    def test_child_time_is_removed_from_parent(self):
        spans = [
            ("bench.op", 0, 0.0, 10.0, -1),
            ("core.run", 0, 1.0, 4.0, 0),
            ("runtime.sim", 0, 5.0, 9.0, 0),
        ]
        got = benchstats.self_times(spans)
        self.assertAlmostEqual(got[(0, "bench")], 3.0)
        self.assertAlmostEqual(got[(0, "core")], 3.0)
        self.assertAlmostEqual(got[(0, "runtime")], 4.0)

    def test_nested_and_overlapping_children(self):
        spans = [
            ("service.job", 7, 0.0, 10.0, -1),
            ("service.queue", 7, 0.0, 6.0, 0),
            ("service.run", 7, 4.0, 12.0, 0),  # overlaps, ends past parent
            ("runtime.sim", 7, 5.0, 7.0, 2),
        ]
        got = benchstats.self_times(spans)
        self.assertAlmostEqual(got[(7, "service")], 0.0 + 6.0 + 6.0)
        self.assertAlmostEqual(got[(7, "runtime")], 2.0)

    def test_layers_sum_per_op(self):
        spans = [
            ("sql.parse", 1, 0.0, 1.0, -1),
            ("sql.plan", 1, 1.0, 3.0, -1),
            ("sql.parse", 2, 0.0, 0.5, -1),
        ]
        got = benchstats.self_times(spans)
        self.assertAlmostEqual(got[(1, "sql")], 3.0)
        self.assertAlmostEqual(got[(2, "sql")], 0.5)


class PerLayerTest(unittest.TestCase):
    def test_failed_op_spans_do_not_shift_parent_links(self):
        def op(index, ok):
            return {"op": index, "ok": ok, "traced": True, "latency_s": 1.0,
                    "cpu_s": 1.0, "units": 1.0 if ok else 0.0, "values": {}}
        raw = {
            "ops": [op(0, False), op(2, True)],
            # Op 0 failed; op 2's child span links to its parent by its
            # index in the full list.
            "spans": [["bench.op", 0, 0.0, 1.0, -1],
                      ["runtime.sim", 0, 0.2, 0.8, 0],
                      ["bench.op", 2, 2.0, 3.0, -1],
                      ["runtime.sim", 2, 2.0, 2.75, 2]],
            "run_values": {}, "setup_values": {}, "open_loop": False,
        }
        got = run.per_layer(raw)
        self.assertAlmostEqual(got["self_ms.bench"]["value"], 250.0)
        self.assertAlmostEqual(got["self_ms.runtime"]["value"], 750.0)
        self.assertAlmostEqual(got["runtime.sim_ms"]["value"], 750.0)


if __name__ == "__main__":
    unittest.main()
