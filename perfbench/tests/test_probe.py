"""Speed-probe arithmetic: wall time rescaled to the reference speed.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
import time
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH]

import probe  # noqa: E402
from probe import REFERENCE_PROBE_S as REF  # noqa: E402
from probe import SpeedProbe  # noqa: E402


def probe_with(marks) -> SpeedProbe:
    p = SpeedProbe()
    p.marks = list(marks)
    return p


def marks_from(gaps, durations) -> list:
    """Probe (start, end) marks with the given probe durations and the given
    work gaps between consecutive probes."""
    marks, t = [], 0.0
    for k, d in enumerate(durations):
        marks.append((t, t + d))
        t += d + (gaps[k] if k < len(gaps) else 0.0)
    return marks


class ReferenceArithmetic(unittest.TestCase):
    def test_reference_speed_leaves_wall_time_unchanged(self):
        p = probe_with(marks_from([0.05, 0.05, 0.03], [REF] * 4))
        self.assertAlmostEqual(p.wall_seconds(), 0.13)
        self.assertAlmostEqual(p.reference_seconds(), 0.13)

    def test_a_host_twice_as_slow_halves_the_scale(self):
        p = probe_with(marks_from([0.1] * 5, [2 * REF] * 6))
        self.assertAlmostEqual(p.wall_seconds(), 0.5)
        self.assertAlmostEqual(p.reference_seconds(), 0.25)

    def test_each_gap_uses_the_probes_around_it(self):
        # fast for the first three gaps, then twice as slow for three
        durations = [REF] * 4 + [2 * REF] * 4
        p = probe_with(marks_from([0.1] * 7, durations))
        # gap k uses the median of probes k-1 .. k+2: gap 2 sees three fast
        # probes and one slow, gap 3 two of each, gap 4 one fast, three slow
        scales = [1, 1, 1, 2 / 3, 1 / 2, 1 / 2, 1 / 2]
        self.assertAlmostEqual(p.reference_seconds(), 0.1 * sum(scales))

    def test_one_interrupted_probe_does_not_skew_its_gaps(self):
        durations = [REF] * 3 + [20 * REF] + [REF] * 3
        p = probe_with(marks_from([0.1] * 6, durations))
        self.assertAlmostEqual(p.reference_seconds(), 0.6)

    def test_burst_and_scale(self):
        durations = probe.burst()
        self.assertEqual(len(durations), probe.BURST_PROBES)
        self.assertTrue(all(d > 0 for d in durations))
        self.assertAlmostEqual(probe.scale([REF, 3 * REF, 2 * REF]), 0.5)

    def test_marks_round_trip_through_a_file(self):
        p = probe_with(marks_from([0.05, 0.07], [REF, 2 * REF, REF]))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "marks.json")
            p.dump(path)
            back = SpeedProbe.load(path)
        self.assertEqual(back.marks, p.marks)
        self.assertEqual(back.reference_seconds(), p.reference_seconds())


class LiveProbe(unittest.TestCase):
    def test_probes_run_during_the_body_and_the_timer_is_restored(self):
        previous = signal.getsignal(signal.SIGALRM)
        with SpeedProbe() as p:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                sum(range(1000))
        self.assertGreaterEqual(len(p.marks), 4)
        starts = [start for start, _ in p.marks]
        self.assertEqual(starts, sorted(starts))
        self.assertLess(p.wall_seconds(), 0.3 + probe.PROBE_INTERVAL_S)
        self.assertGreater(p.reference_seconds(), 0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)


if __name__ == "__main__":
    unittest.main()
