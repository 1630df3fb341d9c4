"""The correctness gate: a wrong expectation must be reported as a failure.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest
from unittest import mock

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Checks  # noqa: E402


class ChecksCounting(unittest.TestCase):
    def test_failures_are_counted_and_kept(self):
        checks = Checks()
        checks.expect("right", 3, 3)
        checks.expect("wrong", 3, 4)
        self.assertEqual((checks.attempted, checks.failed), (2, 1))
        self.assertEqual(checks.fail_ratio(), 0.5)
        self.assertIn("wrong: got 3, want 4", checks.failures[0])

    def test_verify_all_output_is_checked_line_by_line(self):
        good = "\n".join(workloads.VERIFY_ALL_LINES) + "\n"
        checks = Checks()
        workloads.check_verify_all_output(checks, 0, good)
        self.assertEqual((checks.attempted, checks.failed), (3, 0))

        bad = good.replace("PASS  expansions", "FAIL  expansions")
        checks = Checks()
        workloads.check_verify_all_output(checks, 1, bad)
        self.assertEqual(checks.failed, 3)


def run_main(argv) -> tuple:
    out = io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue().splitlines()


class WrongExpectation(unittest.TestCase):
    def test_wrong_expected_value_is_reported(self):
        with mock.patch.object(workloads, "P3_CELL_COUNTS", [24, 13, 4]):
            code, lines = run_main(["--workload", "census", "--seed", "1", "--seconds", "0"])
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], 1)
        self.assertTrue(any("FAILED p=3 cell counts" in line for line in lines))
        self.assertEqual(sorted(result["metrics"]), ["norm_wall_s", "peak_rss_mb", "setup_s"])

    def test_missing_source_exits_without_a_result(self):
        with mock.patch.object(run, "SRC", os.path.join(BENCH, "no-such-src")):
            code, lines = run_main(["--workload", "census", "--seed", "1", "--seconds", "0"])
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_the_runner(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        want = [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER]
        self.assertEqual(per_layer, want + [layers.OVERHEAD])
        self.assertEqual(
            sorted(m["name"] for m in spec["end_to_end"]),
            ["norm_wall_s", "peak_rss_mb", "setup_s"],
        )
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
