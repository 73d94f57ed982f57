"""Quartile, CV and tail-percentile math of the benchmark summaries.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        values = [4.1, 3.9, 5.2, 4.4, 4.0, 4.7, 3.8, 4.2, 4.9, 4.3]
        q1, med, q3 = stats.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_exclusive_method_on_small_samples(self):
        # Exclusive quantiles of 1..5: positions (n+1)p = 1.5, 3, 4.5.
        self.assertEqual(stats.quartiles([5, 1, 4, 2, 3]), (1.5, 3.0, 4.5))

    def test_single_value_is_every_quartile(self):
        self.assertEqual(stats.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_no_values_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.quartiles([])


class Variation(unittest.TestCase):
    def test_cv_is_sample_stdev_over_mean(self):
        values = [9.0, 10.0, 11.0]
        self.assertAlmostEqual(stats.cv(values), 1.0 / 10.0)

    def test_cv_of_one_sample_is_zero(self):
        self.assertEqual(stats.cv([3.0]), 0.0)


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # p50 of 19 samples has 9.5 beyond it: not supported.
        self.assertIsNone(stats.supported_percentile(19))
        self.assertEqual(stats.supported_percentile(20), 50.0)

    def test_ladder_boundaries(self):
        # p90 of 99 samples has 9.9 beyond it.
        self.assertEqual(stats.supported_percentile(99), 50.0)
        self.assertEqual(stats.supported_percentile(100), 90.0)
        self.assertEqual(stats.supported_percentile(200), 95.0)
        self.assertEqual(stats.supported_percentile(999), 95.0)
        self.assertEqual(stats.supported_percentile(1000), 99.0)
        self.assertEqual(stats.supported_percentile(10_000), 99.9)
        self.assertEqual(stats.supported_percentile(100_000), 99.99)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(values, 50), 50)
        self.assertEqual(stats.nearest_rank(values, 90), 90)
        self.assertEqual(stats.nearest_rank(values, 99.5), 100)
        self.assertEqual(stats.nearest_rank([3, 1, 2], 0), 1)
        self.assertEqual(stats.nearest_rank(list(range(1, 1001)), 99.9), 999)

    def test_summary_reports_only_a_supported_tail(self):
        few = stats.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((few["n"], few["median"], few["q1"], few["q3"]), (5, 3.0, 1.5, 4.5))
        self.assertIsNone(few["tail"])
        many = stats.summarize([float(v) for v in range(1, 201)])
        self.assertEqual(many["tail"], {"p": 95.0, "value": 190.0})


if __name__ == "__main__":
    unittest.main()
