"""Acceptance suite: every criterion exact, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
same criteria back ``spinelab verify all``.
"""

import collections
import itertools

import pytest

from spinelab import verification
from spinelab.verification import (
    RunConfig,
    criterion_algebra_structure,
    criterion_cells,
    criterion_census,
    criterion_classification,
    criterion_components,
    criterion_corollary,
    criterion_expansions,
    criterion_metacyclic,
    criterion_nielsen,
    criterion_properties,
    criterion_recursion,
    criterion_series,
    criterion_wreath,
    run_all,
)

BOUND = 40


def _report(number, result):
    line = f"ACCEPTANCE {number:2d} {result.name}: {'PASS' if result.passed else 'FAIL'}"
    print(line, "--", result.detail)
    assert result.passed, f"{result.name}: {result.detail}"


def test_01_census(rank4_complex):
    _report(1, criterion_census(rank4_complex))


def test_02_cells(rank4_complex):
    _report(2, criterion_cells(rank4_complex))


def test_03_components(rank4_complex):
    _report(3, criterion_components(rank4_complex))


def test_04_series_identities():
    _report(4, criterion_series(BOUND))


def test_05_algebra_structure():
    _report(5, criterion_algebra_structure(BOUND))


def test_06_corollary_sum(rank4_complex):
    _report(6, criterion_corollary(rank4_complex, BOUND))


def test_07_wreath_invariants():
    _report(7, criterion_wreath(BOUND))


def test_08_reduced_classification():
    _report(8, criterion_classification())


def test_09_nielsen():
    _report(9, criterion_nielsen())


def test_10_expansions():
    _report(10, criterion_expansions())


def test_11_metacyclic():
    _report(11, criterion_metacyclic(BOUND))


def test_12_recursion_pipeline():
    _report(12, criterion_recursion(BOUND))


def test_13_property_suites(rank4_complex):
    _report(13, criterion_properties(rank4_complex))


def test_property_suite_searches_each_relabelled_matrix_once(
    monkeypatch, rank4_complex, form_encodes
):
    searched = []
    real = verification.matrix_form
    monkeypatch.setattr(verification, "matrix_form", lambda m: searched.append(m) or real(m))
    assert criterion_properties(rank4_complex).passed
    want = {
        tuple(tuple(mult[u][v] for v in order) for u in order)
        for mult in (cls.graph.multiplicity for cls in rank4_complex.classes)
        for order in itertools.permutations(range(len(mult)))
    }
    assert sorted(searched) == sorted(want)
    assert len(searched) == 245
    # each relabelled form is compared with its class's, by rows alone
    assert form_encodes == []


def test_property_suite_checks_every_dart_relabelling(monkeypatch, rank4_complex):
    moves = []
    monkeypatch.setattr(verification, "apply_to_graph", lambda g, a: moves.append(a) or g)
    result = criterion_properties(rank4_complex)
    assert len(moves) == 100 * len(rank4_complex.classes) == 1700
    assert "canonical=False" in result.detail


def test_classification_fails_without_one_class(monkeypatch):
    real = verification.classify_reduced
    monkeypatch.setattr(verification, "classify_reduced", lambda q: real(q)[1:])
    assert not criterion_classification((7,)).passed


@pytest.mark.parametrize("p, primes", [(3, [5, 7]), (5, [5])])
def test_each_suite_classifies_once_per_prime(monkeypatch, p, primes):
    calls = []
    real = verification.classify_reduced
    monkeypatch.setattr(verification, "classify_reduced", lambda q: calls.append(q) or real(q))
    assert all(result.passed for result in run_all(RunConfig(p=p)))
    assert calls == primes


def test_each_p3_suite_builds_one_alpha_beta_equalizer(monkeypatch):
    """The series and free-module criteria read one kernel of the
    alpha/beta pair, which ``run_all`` builds once for both.  The
    corollary's K33 segment builds the only other, from the coefficient
    rule's own alpha and beta."""
    from spinelab import algebra

    source = verification._alpha_beta()[2]
    sources = []
    real = algebra._common_kernel
    monkeypatch.setattr(
        algebra, "_common_kernel", lambda src, pairs, bound: sources.append(src) or real(src, pairs, bound)
    )
    assert all(result.passed for result in run_all(RunConfig()))
    assert sources.count(source) == 2


def test_each_function_reads_a_fixture_file_once(monkeypatch, rank4_complex):
    """``sylow_rule``, ``_alpha_beta`` and ``criterion_wreath`` read each
    fixture file they need once, so one ``run_all`` reads algebras.json
    three times and morphisms.json twice.  The property suite checks
    d^2 = 0 on the cells' boundary, with no coefficients, so it reads no
    algebra."""
    from spinelab import fixtures
    from spinelab.assembly import sylow_rule

    reads = collections.Counter()
    real = fixtures._load
    monkeypatch.setattr(fixtures, "_load", lambda name: reads.update([name]) or real(name))
    for call in (
        lambda: sylow_rule(rank4_complex, BOUND),
        verification._alpha_beta,
        lambda: criterion_wreath(BOUND),
    ):
        reads.clear()
        call()
        assert set(reads.values()) == {1}, reads
    reads.clear()
    assert all(result.passed for result in run_all(RunConfig()))
    assert (reads["algebras.json"], reads["morphisms.json"]) == (3, 2)


def test_run_all_leaves_no_spinelab_function_for_the_collector():
    """No closure of the program sits in a reference cycle: with the
    monomial tables cleared, one ``run_all`` leaves no function of
    ``spinelab`` among the objects the collector finds unreachable."""
    import gc
    import inspect

    from spinelab.algebra import _monomials

    _monomials.cache_clear()
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert all(result.passed for result in run_all(RunConfig()))
        gc.collect()
        leaked = sorted(
            f"{obj.__module__}.{obj.__qualname__}"
            for obj in gc.garbage
            if inspect.isfunction(obj) and obj.__module__.startswith("spinelab")
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


def test_metacyclic_fails_on_the_algebra_of_another_prime(monkeypatch):
    real = verification.cohomology_of_metacyclic
    monkeypatch.setattr(verification, "cohomology_of_metacyclic", lambda p, m: real(5, 4))
    assert not criterion_metacyclic(40, (7,)).passed


# the detail strings of the six cohomology criteria at degree bound 120, as
# the benchmark's cohomology workload records them
BOUND_120_DETAILS = (
    (criterion_series, False, "equalizer-series", "dims<=8 (1, 0, 0, 1, 1, 0, 0, 3, 3)"),
    (
        criterion_algebra_structure,
        False,
        "free-module-and-relations",
        "free=True, relations=[True, True, True, True, True, True]",
    ),
    (criterion_wreath, False, "wreath-invariants", "dims_ok=True fixed=True independent=True"),
    (
        criterion_metacyclic,
        False,
        "metacyclic-cohomology",
        "p=3: degrees=[3, 4]; p=5: degrees=[7, 8]; p=7: degrees=[11, 12]",
    ),
    (criterion_recursion, False, "recursion-pipeline", "p3 degenerate=True, p5 synthetic=True"),
    (criterion_corollary, True, "corollary-sum", "total<=10 (3, 0, 0, 3, 3, 0, 0, 5, 5, 0, 2)"),
)


@pytest.mark.parametrize(
    "criterion,takes_complex,name,detail",
    BOUND_120_DETAILS,
    ids=[row[2] for row in BOUND_120_DETAILS],
)
def test_cohomology_criteria_at_bound_120(rank4_complex, criterion, takes_complex, name, detail):
    args = (rank4_complex, 120) if takes_complex else (120,)
    result = criterion(*args)
    assert (result.name, result.passed, result.detail) == (name, True, detail)
