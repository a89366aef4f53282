"""Tests of compare.py's verdict rules: python3 perfbench/test_compare.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from compare import parse_run, parse_seeds, verdict  # noqa: E402


def paired(values):
    return {seed: v for seed, v in enumerate(values)}


class VerdictTest(unittest.TestCase):
    parent = paired([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])

    def test_a_clear_win_is_better(self):
        change = paired([v * 1.10 for v in self.parent.values()])
        self.assertEqual(verdict(self.parent, change, True, 0.25)[0], "better")
        # The same numbers are a loss when lower is better...
        self.assertEqual(verdict(self.parent, change, False, 0.05)[0], "worse")
        # ...but within a loose bound they are unchanged.
        self.assertEqual(verdict(self.parent, change, False, 0.25)[0], "unchanged")

    def test_a_win_inside_the_parent_spread_is_not_claimed(self):
        change = paired([v + 0.5 for v in self.parent.values()])
        self.assertEqual(verdict(self.parent, change, True, 0.25)[0], "unchanged")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        noisy = paired([50, 150, 60, 140, 70, 130, 80, 120, 90, 110])
        change = paired([v * 0.97 for v in noisy.values()])
        self.assertEqual(verdict(noisy, change, True, 0.25)[0], "unresolved")
        beats_all = paired([151 + i for i in range(10)])
        self.assertNotEqual(verdict(noisy, beats_all, True, 0.25)[0], "unresolved")

    def test_runs_pair_by_seed(self):
        _, wins, n = verdict({1: 10, 2: 10}, {2: 11, 3: 1}, True, 0.25)
        self.assertEqual((wins, n), (1, 1))


class ParseTest(unittest.TestCase):
    def test_result_line_and_meta(self):
        text = '{"meta": {"workload": "ioctl", "seed": 3}}\n' \
               '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}\n'
        meta, result = parse_run(text)
        self.assertEqual(meta["seed"], 3)
        self.assertTrue(result["correct"])
        self.assertIsNone(parse_run("error: no build\n"))

    def test_seed_ranges(self):
        self.assertEqual(parse_seeds("1-3,7"), [1, 2, 3, 7])


if __name__ == "__main__":
    unittest.main()
