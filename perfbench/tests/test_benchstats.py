"""Self-test of the benchmark's statistics and naming rules.

    python3 -m unittest discover -s perfbench/tests

Pins the percentile helper, the tail-percentile rule (a percentile is only
reported with at least ten samples beyond it), the metric-name grammar
[A-Za-z0-9_.-]+ over every name in BENCHMARK.json, and that run.py derives
every end-to-end metric the file declares.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import benchstats  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
    SPEC = json.load(f)


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        values = [float(v) for v in range(1, 11)]
        self.assertEqual(benchstats.percentile(values, 0), 1.0)
        self.assertEqual(benchstats.percentile(values, 100), 10.0)
        self.assertAlmostEqual(benchstats.percentile(values, 50), 5.5)
        self.assertAlmostEqual(benchstats.percentile(values, 90), 9.1)
        self.assertAlmostEqual(benchstats.percentile(values, 75), 7.75)

    def test_order_and_singletons(self):
        self.assertEqual(benchstats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchstats.percentile([4.2], 90), 4.2)
        with self.assertRaises(ValueError):
            benchstats.percentile([], 50)
        with self.assertRaises(ValueError):
            benchstats.percentile([1.0], 101)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(benchstats.tail_percentile(39))
        self.assertEqual(benchstats.tail_percentile(40), 75.0)
        self.assertEqual(benchstats.tail_percentile(99), 75.0)
        self.assertEqual(benchstats.tail_percentile(100), 90.0)
        self.assertEqual(benchstats.tail_percentile(200), 95.0)
        self.assertEqual(benchstats.tail_percentile(1000), 99.0)
        self.assertEqual(benchstats.tail_percentile(10000), 99.9)

    def test_summary_reports_count(self):
        summary = benchstats.summarize([float(v) for v in range(100)])
        self.assertEqual(summary["n"], 100)
        self.assertEqual(summary["tail_pct"], 90.0)
        self.assertAlmostEqual(summary["tail"], 89.1)
        self.assertNotIn("tail", benchstats.summarize([1.0, 2.0]))
        self.assertIn("(n=100)", benchstats.format_summary(summary, "ms"))

    def test_iqr_share(self):
        # statistics.quantiles' default (exclusive) method, as the
        # steadiness rule uses it.
        self.assertAlmostEqual(
            benchstats.iqr_share([1.0, 2.0, 3.0, 4.0, 5.0]), 3.0 / 3.0)
        self.assertEqual(benchstats.iqr_share([7.0]), 0.0)


class NameGrammarTest(unittest.TestCase):
    def test_grammar(self):
        for good in ("setup_s", "legal.row_assign.s", "lcp.iterations_q1",
                     "runtime.scheduler.jobs_per_design", "x-1", "9a"):
            self.assertTrue(benchstats.valid_name(good), good)
        for bad in ("", ".leading", "_leading", "has space", "a/b",
                    "service.session.{apply}_ms", "x" * 65, None):
            self.assertFalse(benchstats.valid_name(bad), bad)

    def test_benchmark_names(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(benchstats.valid_name(name), name)
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(run.WORKLOADS))

    def test_end_to_end_metrics_are_derived(self):
        raw = {"series": {"setup_s": [1.0], "legalize_s": [2.0],
                          "request_ms": [3.0] * 100},
               "values": {"designs_per_s": 300.0,
                          "disp_mean_sites": 1.5, "dhpwl_pct": 0.1,
                          "peak_rss_mb": 50.0},
               "layers": {}}
        derived = run.derive_metrics(raw, failed=0, attempted=10)
        for metric in SPEC["end_to_end"]:
            self.assertIn(metric["name"], derived)
            self.assertGreater(derived[metric["name"]], 0.0, metric["name"])


if __name__ == "__main__":
    unittest.main()
