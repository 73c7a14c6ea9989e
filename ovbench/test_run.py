"""Tests of run.py's statistics and of BENCHMARK.json against its tables.

    cd ovbench && python3 -m unittest test_run
"""

import json
import os
import unittest

import run


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond_the_percentile(self):
        self.assertIsNone(run.tail_percentile(0))
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(39), 50)
        self.assertEqual(run.tail_percentile(40), 75)
        self.assertEqual(run.tail_percentile(99), 75)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(199), 90)
        self.assertEqual(run.tail_percentile(200), 95)
        self.assertEqual(run.tail_percentile(999), 95)
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 99.9), 100)
        self.assertEqual(run.percentile([5.0], 50), 5.0)

    def test_summary_reports_tail_only_with_enough_samples(self):
        stats = run.summarise({"few": [1.0] * 19, "many": list(range(40))})
        self.assertIsNone(stats["few"]["tail"])
        self.assertEqual(stats["few"]["n"], 19)
        self.assertEqual(stats["many"]["tail"], (75, 29))
        self.assertEqual(stats["many"]["median"], 19.5)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_the_tables(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.assertEqual(json.load(f), run.spec())

    def test_names_are_unique(self):
        names = [n for n, *_ in run.END_TO_END] + [n for n, *_ in run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
