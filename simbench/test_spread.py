"""Tests of spread.py's helpers: python3 -m unittest discover -s simbench"""

import unittest

from spread import seeds, spread


class SpreadTest(unittest.TestCase):
    def test_spread_is_the_quartile_distance_over_the_median(self):
        # statistics.quantiles(1..10, n=4) == [2.75, 5.5, 8.25]
        med, q1, q3, s = spread(list(range(1, 11)))
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(s, 1.0)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(spread([3.0] * 10)[3], 0.0)

    def test_seed_ranges_and_lists(self):
        self.assertEqual(seeds("3-6"), [3, 4, 5, 6])
        self.assertEqual(seeds("1,9"), [1, 9])


if __name__ == "__main__":
    unittest.main()
