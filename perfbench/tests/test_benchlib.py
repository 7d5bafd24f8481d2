"""Tests of the benchmark's result arithmetic (perfbench/benchlib.py).

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchlib  # noqa: E402

REFERENCE = [{"pos": 100, "candidates": 5, "skyline": 2,
              "digest": "00000000000000ab"},
             {"pos": 200, "candidates": 6, "skyline": 3,
              "digest": "00000000000000cd"}]
SPECS = [{"name": "ingest_eps", "unit": "elem/s"},
         {"name": "setup_s", "unit": "s"}]


def report(failed=0, digest="00000000000000cd"):
    return {
        "attempted": 1000, "failed": failed, "reasons": [],
        "checks": [dict(REFERENCE[0]), dict(REFERENCE[1], digest=digest)],
        "metrics": {"ingest_eps": {"value": 123.5, "unit": "elem/s",
                                   "samples": 10},
                    "setup_s": {"value": 0.25, "unit": "s", "samples": 3}},
    }


class QuartileSpread(unittest.TestCase):
    def test_known_values(self):
        # statistics.quantiles(1..10, n=4) = [2.75, 5.5, 8.25]
        self.assertAlmostEqual(benchlib.quartile_spread(range(1, 11)),
                               (8.25 - 2.75) / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(benchlib.quartile_spread([4.0] * 10), 0.0)


class ResultAssembly(unittest.TestCase):
    def test_matching_run_is_correct(self):
        out = report()
        mismatches = benchlib.reference_mismatches(out["checks"], REFERENCE)
        self.assertEqual(mismatches, [])
        result = benchlib.assemble(out, SPECS, mismatches, len(REFERENCE),
                                   per_layer=False)
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 1002)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["ingest_eps"],
                         {"value": 123.5, "unit": "elem/s"})

    def test_digest_mismatch_fails_the_run(self):
        out = report(digest="ffffffffffffffff")
        mismatches = benchlib.reference_mismatches(out["checks"], REFERENCE)
        self.assertEqual(len(mismatches), 1)
        self.assertIn("digest", mismatches[0])
        result = benchlib.assemble(out, SPECS, mismatches, len(REFERENCE),
                                   per_layer=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_unobserved_position_is_a_mismatch(self):
        checks = report()["checks"][:1]
        self.assertEqual(len(benchlib.reference_mismatches(checks, REFERENCE)),
                         1)

    def test_driver_failures_count_toward_failed_share(self):
        result = benchlib.assemble(report(failed=3), SPECS, [], 0,
                                   per_layer=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 3)
        self.assertEqual(result["attempted"], 1000)

    def test_missing_end_to_end_metric_fails(self):
        specs = SPECS + [{"name": "visible_p99_us", "unit": "us"}]
        result = benchlib.assemble(report(), specs, [], 0, per_layer=False)
        self.assertFalse(result["correct"])
        self.assertNotIn("visible_p99_us", result["metrics"])

    def test_unexercised_layer_reads_zero(self):
        specs = [{"name": "core.shard_engine.merge_ms", "unit": "ms"}]
        result = benchlib.assemble(report(), specs, [], 0, per_layer=True)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["core.shard_engine.merge_ms"],
                         {"value": 0.0, "unit": "ms"})

    def test_parallel_speedup(self):
        reports = {"ingest_anti": report(), "parallel_anti": report()}
        reports["parallel_anti"]["metrics"]["ingest_eps"]["value"] = 247.0
        self.assertAlmostEqual(benchlib.parallel_speedup(reports), 2.0)
        self.assertIsNone(benchlib.parallel_speedup({"ingest_anti": report()}))

    def test_read_shares(self):
        reports = {"ingest_anti": report(), "parallel_anti": report()}
        reports["parallel_anti"]["metrics"]["driver.read_share"] = {
            "value": 0.25, "unit": "share", "samples": 30}
        self.assertEqual(benchlib.read_shares(reports),
                         {"parallel_anti": 0.25})


if __name__ == "__main__":
    unittest.main()
