"""Tracer arithmetic, alias rebinding and count repeatability.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import spinelab  # noqa: E402
from spinelab import algebra, assembly, graphs, linalg, symmetry, verification  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import Census, Checks  # noqa: E402


class ScriptedClock:
    """A clock that returns the given readings in order."""

    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        # outer [0, 10] holds inner [1, 3] and inner [4, 7]
        t = tracing.Tracer(clock=ScriptedClock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
        inner = t.wrap("m.inner", lambda: None)
        outer = t.wrap("m.outer", lambda: (inner(), inner()))
        outer()
        stats = t.summarize()
        self.assertEqual(stats["m.outer"], {"calls": 1, "self_s": 5.0, "total_s": 10.0})
        self.assertEqual(stats["m.inner"], {"calls": 2, "self_s": 5.0, "total_s": 5.0})
        self.assertEqual(list(t.parents), [-1, 0, 0])

    def test_grandchildren_count_only_against_their_parent(self):
        # a [0, 20] > b [2, 12] > c [4, 8]; then a second root d [30, 31]
        t = tracing.Tracer(clock=ScriptedClock([0.0, 2.0, 4.0, 8.0, 12.0, 20.0, 30.0, 31.0]))
        c = t.wrap("m.c", lambda: None)
        b = t.wrap("m.b", lambda: c())
        a = t.wrap("m.a", lambda: b())
        d = t.wrap("m.d", lambda: None)
        a()
        d()
        stats = t.summarize()
        self.assertEqual(stats["m.a"]["self_s"], 10.0)
        self.assertEqual(stats["m.b"]["self_s"], 6.0)
        self.assertEqual(stats["m.c"]["self_s"], 4.0)
        self.assertEqual(stats["m.d"]["self_s"], 1.0)
        self.assertEqual(list(t.parents), [-1, 0, 1, -1])

    def test_recursion_counts_outermost_total_once(self):
        # f(2) [0, 9] > f(1) [1, 6] > f(0) [2, 3]
        t = tracing.Tracer(clock=ScriptedClock([0.0, 1.0, 2.0, 3.0, 6.0, 9.0]))
        calls = {}

        def f(n):
            return calls["f"](n - 1) if n else 0

        calls["f"] = t.wrap("m.f", f)
        calls["f"](2)
        stats = t.summarize()["m.f"]
        self.assertEqual(stats["calls"], 3)
        self.assertEqual(stats["total_s"], 9.0)
        self.assertEqual(stats["self_s"], 9.0)

    def test_sibling_after_recursion_is_outermost_again(self):
        # f [0, 4] > f [1, 2]; then f [5, 6] at the root
        t = tracing.Tracer(clock=ScriptedClock([0.0, 1.0, 2.0, 4.0, 5.0, 6.0]))
        calls = {}

        def f(n):
            return calls["f"](n - 1) if n else 0

        calls["f"] = t.wrap("m.f", f)
        calls["f"](1)
        calls["f"](0)
        self.assertEqual(t.summarize()["m.f"]["total_s"], 5.0)

    def test_exception_closes_the_span(self):
        t = tracing.Tracer(clock=ScriptedClock([0.0, 1.0, 2.0, 3.0]))

        def boom():
            raise ValueError("boom")

        failing = t.wrap("m.boom", boom)
        ok = t.wrap("m.ok", lambda: None)
        with self.assertRaises(ValueError):
            failing()
        self.assertEqual(t.current, -1)
        ok()
        self.assertEqual(list(t.parents), [-1, -1])
        self.assertEqual(t.summarize()["m.boom"]["total_s"], 1.0)

    def test_generators_are_counted_not_timed(self):
        t = tracing.Tracer(clock=ScriptedClock([]))

        def gen(n):
            yield from range(n)

        wrapped = t.wrap("m.gen", gen)
        self.assertEqual(list(wrapped(3)), [0, 1, 2])
        self.assertEqual(t.counts["m.gen.calls"], 1)
        self.assertEqual(len(t.starts), 0)

    def test_result_counters(self):
        t = tracing.Tracer()
        rref = t.wrap("linalg.rref", lambda matrix, p: ([], []))
        rref([[1, 2, 3], [4, 5, 6]], 3)
        rref([], 3)
        self.assertEqual(t.counts["linalg.rref.entries"], 6)
        admissible = t.wrap("graphs.is_admissible", lambda flag: flag)
        admissible(True)
        admissible(False)
        self.assertEqual(t.counts["graphs.is_admissible.true"], 1)

    def test_dump_and_load_keep_every_span(self):
        t = tracing.Tracer(clock=ScriptedClock([0.0, 1.0, 3.0, 10.0]))
        inner = t.wrap("m.inner", lambda: None)
        t.wrap("m.outer", lambda: inner())()
        t.counts["m.extra"] += 4
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.bin")
            t.dump(path)
            back = tracing.Tracer.load(path)
        self.assertEqual(back.summarize(), t.summarize())
        self.assertEqual(back.counts, t.counts)
        self.assertEqual(list(back.parents), list(t.parents))


class Rebinding(unittest.TestCase):
    def setUp(self):
        self.tracer = tracing.Tracer()
        self.installed = tracing.install(self.tracer)
        self.addCleanup(self.installed.undo)

    def test_aliases_share_one_wrapper(self):
        self.assertIs(verification.canonical_form, symmetry.canonical_form)
        self.assertIs(spinelab.canonical_form, symmetry.canonical_form)
        self.assertTrue(hasattr(symmetry.canonical_form, "__wrapped__"))

    def test_same_short_name_in_two_modules_resolves_by_origin(self):
        # verification imports graphs.rank; assembly reaches linalg.rank
        g = graphs.build_graph(1, [(0, 0), (0, 0)])
        self.assertEqual(verification.rank(g), 2)
        self.assertEqual(spinelab.rank(g), 2)
        self.assertEqual(assembly.linalg.rank([[1, 0], [0, 1]], 3), 2)
        stats = self.tracer.summarize()
        self.assertEqual(stats["graphs.rank"]["calls"], 2)
        self.assertEqual(stats["linalg.rank"]["calls"], 1)
        self.assertIs(verification.rank, graphs.rank)
        self.assertIsNot(graphs.rank, linalg.rank)

    def test_private_functions_and_classes_are_left_alone(self):
        self.assertFalse(hasattr(symmetry._min_matrix_data, "__wrapped__"))
        self.assertIsInstance(symmetry.CanonicalForm, type)

    def test_methods_are_wrapped_under_one_name(self):
        for cls in (algebra.AlgebraMorphism, algebra.ProductMorphism):
            self.assertTrue(hasattr(vars(cls)["matrix_in_degree"], "__wrapped__"))

    def test_undo_restores_every_original(self):
        wrapped = symmetry.canonical_form
        self.installed.undo()
        self.assertIs(symmetry.canonical_form, wrapped.__wrapped__)
        self.assertIs(verification.canonical_form, wrapped.__wrapped__)
        self.assertFalse(hasattr(vars(algebra.AlgebraMorphism)["matrix_in_degree"], "__wrapped__"))


def traced_census_counts(seed: int, workdir: str) -> tuple:
    t = tracing.Tracer()
    workload = Census(seed, workdir)
    installed = tracing.install(t)
    try:
        workload.run_pass(Checks())
    finally:
        installed.undo()
    calls = {name: s["calls"] for name, s in t.summarize().items()}
    return calls, dict(t.counts)


class Repeatability(unittest.TestCase):
    def test_counts_repeat_for_a_fixed_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            first = traced_census_counts(7, tmp)
            second = traced_census_counts(7, tmp)
        self.assertEqual(first, second)
        self.assertGreater(first[0]["symmetry.canonical_form"], 0)


if __name__ == "__main__":
    unittest.main()
