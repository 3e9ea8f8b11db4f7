import unittest

import _path  # noqa: F401
from simbench_lib import stats


class PercentileRule(unittest.TestCase):
    def test_nearest_rank_picks_a_sample(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(stats.nearest_rank(values, 50), 3)
        self.assertEqual(stats.nearest_rank(values, 100), 5)
        self.assertEqual(stats.nearest_rank(values, 1), 1)

    def test_p95_when_ten_samples_lie_beyond_it(self):
        values = list(range(200))
        pct, value = stats.tail_percentile(values, 95)
        self.assertEqual(pct, 95)
        self.assertEqual(value, 189)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_falls_back_to_the_highest_percentile_with_ten_beyond(self):
        values = list(range(100))
        pct, value = stats.tail_percentile(values, 95)
        self.assertEqual(pct, 90)
        self.assertEqual(sum(v > value for v in values), 10)
        for higher in range(91, 96):
            self.assertLess(stats.beyond(100, higher), 10)

    def test_too_few_samples_for_any_percentile(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile(list(range(10)), 95)


if __name__ == "__main__":
    unittest.main()
