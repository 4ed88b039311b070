"""Tests of the benchmark's percentile rule (stats.py).

    python3 perfbench/test_stats.py
"""

import os
import struct
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        # 1000 samples leave exactly 10 beyond p99: supported.
        self.assertEqual(stats.supported_percentile(1000, 0.99), 0.99)
        # 999 leave 9.99: not supported; fall back to the highest that is.
        q = stats.supported_percentile(999, 0.99)
        self.assertLess(q, 0.99)
        self.assertGreaterEqual(999 * (1 - q), 10)

    def test_fallback_is_highest_supported(self):
        for n in (20, 37, 100, 250, 999):
            q = stats.supported_percentile(n, 0.99)
            self.assertGreaterEqual(n * (1 - q), 10 - 1e-9)
            # One grid step higher would leave fewer than ten beyond it.
            self.assertLess(n * (1 - (q + 0.001)), 10 + 1e-9)

    def test_too_few_for_a_median(self):
        self.assertIsNone(stats.supported_percentile(19, 0.5))
        self.assertIsNone(stats.tail(list(range(19)), 0.99))
        self.assertEqual(stats.supported_percentile(20, 0.5), 0.5)

    def test_tail_reports_percentile_and_count(self):
        values = list(range(1, 1001))  # 1..1000
        t = stats.tail(values, 0.99)
        self.assertEqual(t, {"value": 990, "percentile": 0.99, "count": 1000})
        t = stats.tail(values[:100], 0.99)
        self.assertEqual(t["percentile"], 0.9)
        self.assertEqual(t["value"], 90)
        self.assertEqual(t["count"], 100)

    def test_nearest_rank(self):
        self.assertEqual(stats.quantile([5], 0.5), 5)
        self.assertEqual(stats.quantile([1, 2, 3, 4], 0.5), 2)
        self.assertEqual(stats.quantile([1, 2, 3, 4], 0.75), 3)
        self.assertEqual(stats.quantile([1, 2, 3, 4], 1.0), 4)

    def test_windowed_tail_ignores_one_stalled_window(self):
        calm = [100] * 980 + [200] * 20
        stalled = [100] * 900 + [50000] * 100
        values = calm * 4 + stalled
        self.assertEqual(stats.tail(values, 0.99)["value"], 50000)
        t = stats.windowed_tail(values, 0.99, 5)
        self.assertEqual(t["value"], 200)
        self.assertEqual(t["windows"], 5)
        self.assertEqual(t["count"], 5000)

    def test_windowed_tail_applies_the_rule_per_window(self):
        values = list(range(1000))
        t = stats.windowed_tail(values, 0.99, 10)  # 100 per window
        self.assertEqual(t["percentile"], 0.9)
        self.assertIsNone(stats.windowed_tail(values, 0.5, 100))


class SeriesFileTest(unittest.TestCase):
    def test_round_trip(self):
        with tempfile.NamedTemporaryFile(delete=False) as f:
            for name, values in (("read_ns.0", [3, 1, 2]), ("stale_ns", [])):
                f.write(struct.pack("<H", len(name)) + name.encode())
                f.write(struct.pack("<I", len(values)))
                f.write(struct.pack("<%dI" % len(values), *values))
        try:
            self.assertEqual(stats.read_series(f.name),
                             {"read_ns.0": [3, 1, 2], "stale_ns": []})
        finally:
            os.unlink(f.name)


if __name__ == "__main__":
    unittest.main()
