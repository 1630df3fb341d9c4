"""Per-layer metrics derived from a traced run's span summary and counts.

Each entry is (metric name, unit, better, how to compute it).  Layers a
workload does not reach report 0.  ``trace.overhead_ratio`` is supplied by
the runner, which times the same work with and without the tracer.
"""

from __future__ import annotations

CRITERIA = (
    "census",
    "cells",
    "components",
    "series",
    "algebra_structure",
    "corollary",
    "wreath",
    "classification",
    "nielsen",
    "expansions",
    "metacyclic",
    "recursion",
    "properties",
)


def module_self(module):
    prefix = module + "."
    return lambda stats, counts: sum(s["self_s"] for n, s in stats.items() if n.startswith(prefix))


def field(span, key):
    return lambda stats, counts: stats.get(span, {}).get(key, 0)


def count(key):
    return lambda stats, counts: counts.get(key, 0)


def share(key, span):
    """Calls of ``span`` that returned a true result, over all its calls."""

    def compute(stats, counts):
        calls = stats.get(span, {}).get("calls", 0)
        return counts.get(key, 0) / calls if calls else 0.0

    return compute


PER_LAYER = [
    ("graphs.self_s", "s", "lower", module_self("graphs")),
    ("graphs.is_admissible.calls", "count", "lower", field("graphs.is_admissible", "calls")),
    ("graphs.is_admissible.yield", "ratio", "higher", share("graphs.is_admissible.true", "graphs.is_admissible")),
    ("graphs.collapse_with_maps.calls", "count", "lower", field("graphs.collapse_with_maps", "calls")),
    ("symmetry.self_s", "s", "lower", module_self("symmetry")),
    ("symmetry.canonical_form.calls", "count", "lower", field("symmetry.canonical_form", "calls")),
    ("symmetry.canonical_form.self_s", "s", "lower", field("symmetry.canonical_form", "self_s")),
    ("symmetry.is_automorphism.calls", "count", "lower", field("symmetry.is_automorphism", "calls")),
    ("symmetry.perm_order.calls", "count", "lower", field("symmetry.perm_order", "calls")),
    ("spine.self_s", "s", "lower", module_self("spine")),
    ("spine.enumerate_admissible.s", "s", "lower", field("spine.enumerate_admissible", "total_s")),
    ("spine.enumerate_admissible.classes", "count", "higher", count("spine.enumerate_admissible.items")),
    ("spine.quotient_complex.s", "s", "lower", field("spine.quotient_complex", "total_s")),
    ("equivariant.self_s", "s", "lower", module_self("equivariant")),
    ("equivariant.equivariant_expansions.s", "s", "lower", field("equivariant.equivariant_expansions", "total_s")),
    ("equivariant.realize_quotient_data.calls", "count", "lower", field("equivariant.realize_quotient_data", "calls")),
    ("equivariant.equivariant_isomorphic.calls", "count", "lower", field("equivariant.equivariant_isomorphic", "calls")),
    (
        "equivariant.equivariant_isomorphic.yield",
        "ratio",
        "higher",
        share("equivariant.equivariant_isomorphic.true", "equivariant.equivariant_isomorphic"),
    ),
    ("equivariant.classify_reduced.s", "s", "lower", field("equivariant.classify_reduced", "total_s")),
    ("equivariant.nielsen_closure.s", "s", "lower", field("equivariant.nielsen_closure", "total_s")),
    ("linalg.self_s", "s", "lower", module_self("linalg")),
    ("linalg.rref.calls", "count", "lower", field("linalg.rref", "calls")),
    ("linalg.rref.entries", "count", "lower", count("linalg.rref.entries")),
    ("algebra.self_s", "s", "lower", module_self("algebra")),
    ("algebra.matrix_in_degree.calls", "count", "lower", field("algebra.matrix_in_degree", "calls")),
    ("algebra.matrix_in_degree.self_s", "s", "lower", field("algebra.matrix_in_degree", "self_s")),
    ("algebra.invariants.s", "s", "lower", field("algebra.invariants", "total_s")),
    ("algebra.equalizer.s", "s", "lower", field("algebra.equalizer", "total_s")),
    ("algebra.verify_free_module.s", "s", "lower", field("algebra.verify_free_module", "total_s")),
    ("series.self_s", "s", "lower", module_self("series")),
    ("assembly.self_s", "s", "lower", module_self("assembly")),
    ("assembly.theorem_pipeline.s", "s", "lower", field("assembly.theorem_pipeline", "total_s")),
    ("assembly.component_cohomology.s", "s", "lower", field("assembly.component_cohomology", "total_s")),
] + [
    (f"verification.{c}.s", "s", "lower", field(f"verification.criterion_{c}", "total_s"))
    for c in CRITERIA
]

OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def layer_metrics(stats: dict, counts: dict, overhead_ratio: float) -> dict:
    out = {name: {"value": compute(stats, counts), "unit": unit} for name, unit, _, compute in PER_LAYER}
    out[OVERHEAD[0]] = {"value": overhead_ratio, "unit": OVERHEAD[1]}
    return out
