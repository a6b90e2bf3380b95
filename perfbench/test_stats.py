"""Tests of perfbench/stats.py. Run: python3 perfbench/test_stats.py"""

import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_returns_a_sample(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(values, 50), 3.0)
        self.assertEqual(stats.percentile(values, 100), 5.0)
        self.assertEqual(stats.percentile(values, 1), 1.0)
        self.assertEqual(stats.percentile(values, 20), 1.0)
        self.assertEqual(stats.percentile(values, 21), 2.0)

    def test_p99_of_1000_samples_leaves_ten_beyond(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.percentile(values, 99), 990)
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(1000, 99.9), 1)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)


class TailRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail([1.0] * 5), (None, None, 5))

    def test_tail_states_the_sample_count(self):
        values = [float(i) for i in range(1, 1001)]
        self.assertEqual(stats.tail(values), (99.0, 990.0, 1000))

    def test_every_reported_tail_has_ten_beyond(self):
        for n in range(20, 3000, 7):
            p = stats.tail_percentile(n)
            self.assertGreaterEqual(stats.samples_beyond(n, p), 10, n)


class AcrossRunsTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        runs = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 14.0]
        q1, q2, q3 = stats.quartiles(runs)
        self.assertEqual((q1, q2, q3), tuple(statistics.quantiles(runs, n=4)))
        self.assertEqual(q2, stats.median(runs))
        self.assertAlmostEqual(stats.relative_spread(runs), (q3 - q1) / q2)

    def test_spread_of_identical_runs_is_zero(self):
        self.assertEqual(stats.relative_spread([3.0] * 10), 0.0)

    def test_spread_rejects_zero_median_and_single_run(self):
        with self.assertRaises(ValueError):
            stats.relative_spread([0.0, 0.0, 0.0])
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])
        with self.assertRaises(ValueError):
            stats.median([])

    def test_relative_change(self):
        self.assertAlmostEqual(stats.relative_change(110.0, 100.0), 10.0)
        self.assertAlmostEqual(stats.relative_change(90.0, 100.0), -10.0)
        with self.assertRaises(ValueError):
            stats.relative_change(1.0, 0.0)


class FailedRatioTest(unittest.TestCase):
    def test_arithmetic(self):
        self.assertEqual(stats.failed_ratio(0, 1000), 0.0)
        self.assertEqual(stats.failed_ratio(28, 3000), 28 / 3000)
        self.assertEqual(stats.failed_ratio(5, 5), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.failed_ratio(0, 0)
        with self.assertRaises(ValueError):
            stats.failed_ratio(-1, 10)
        with self.assertRaises(ValueError):
            stats.failed_ratio(11, 10)


if __name__ == "__main__":
    unittest.main()
