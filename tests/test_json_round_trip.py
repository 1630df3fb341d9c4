"""Every graph and graph-with-symmetry the program builds passes the
checked JSON entry and comes back unchanged.

The constructors of ``HalfEdgeGraph`` and ``ZpGraph`` trust their
callers, and ``from_json`` holds the checks.  So the check the
constructors once made on every graph runs here instead, on the
program's own constructions: census classes, blow-up candidates,
realized quotient data, Nielsen closures and moves, collapses,
relabellings and the catalog actions.
"""

import json
import random

import pytest

from spinelab import catalog, equivariant
from spinelab.equivariant import (
    ZpGraph,
    _blow_up_candidates,
    classify_reduced,
    enumerate_zp_graphs,
    equivariant_collapse,
    invariant_forests,
    nielsen_closure,
    nielsen_moves,
)
from spinelab.graphs import HalfEdgeGraph, collapse, enumerate_forests
from spinelab.spine import singular_graphs
from spinelab.symmetry import apply_to_graph, compose
from spinelab.verification import PROPERTY_SEED, _dart_relabelling

from census_oracle import every_vertex_census

CASES = [(3, 4), (5, 4), (3, 5), (7, 6)]


def assert_round_trips(items) -> int:
    """Each item read back from its JSON text equals it, its graph too;
    returns the number of items."""
    count = 0
    for x in items:
        back = type(x).from_json(json.loads(json.dumps(x.to_json())))
        assert back == x, x
        if isinstance(x, ZpGraph):
            assert back.trivial == x.trivial
            assert HalfEdgeGraph.from_json(x.graph.to_json()) == x.graph
        count += 1
    return count


@pytest.fixture(scope="module")
def censuses():
    """(p, n) -> (census classes, realize_quotient_data outputs), the
    census at the full edge budget 3n - 3."""
    out = {}
    realize = equivariant.realize_quotient_data
    for p, n in CASES:
        realized = []
        equivariant.realize_quotient_data = lambda *a: realized.append(realize(*a)) or realized[-1]
        try:
            classes = enumerate_zp_graphs(p, n, 3 * n - 3)
        finally:
            equivariant.realize_quotient_data = realize
        out[(p, n)] = classes, realized
    return out


@pytest.mark.parametrize("p, n", CASES)
def test_census_classes_and_blow_up_candidates_round_trip(censuses, p, n):
    classes, _ = censuses[(p, n)]
    candidates = [zg for c in classes for zg, _ in _blow_up_candidates(c, 3 * n - 3)]
    assert assert_round_trips(classes) == len(classes) > 0
    assert assert_round_trips(candidates) == len(candidates)
    assert assert_round_trips(cls.graph for cls in singular_graphs(p, n)) > 0


@pytest.mark.parametrize("p, n", CASES)
def test_realized_quotient_data_round_trips(censuses, p, n):
    _, realized = censuses[(p, n)]
    assert assert_round_trips(realized) >= 1


@pytest.mark.parametrize("p, n", CASES)
def test_equivariant_collapses_round_trip(censuses, p, n):
    classes, _ = censuses[(p, n)]
    collapses = [equivariant_collapse(zg, f) for zg in classes for f in invariant_forests(zg)]
    assert assert_round_trips(collapses) == len(collapses)


@pytest.mark.parametrize("q", [5, 7])
def test_nielsen_closures_and_moves_round_trip(q):
    closures = [zg for start in classify_reduced(q) for zg in nielsen_closure(start)]
    moves = [move.result for zg in closures for move in nielsen_moves(zg)]
    assert assert_round_trips(closures) == len(closures) > 0
    assert assert_round_trips(moves) == len(moves)


def test_rank4_collapses_round_trip():
    classes = every_vertex_census(4)
    quotients = [collapse(g, f) for g in classes for f in enumerate_forests(g)]
    assert assert_round_trips(classes) == 43
    assert assert_round_trips(quotients) == 2807


def test_dart_relabellings_round_trip():
    """The seeded dart-level relabellings of the property suite."""
    rng = random.Random(PROPERTY_SEED)
    moved = [
        apply_to_graph(g, _dart_relabelling(g, rng)) for g in every_vertex_census(4) for _ in range(100)
    ]
    assert assert_round_trips(moved) == 4300


@pytest.mark.parametrize("q", [3, 5, 7])
def test_catalog_actions_round_trip(q):
    g, left, right = catalog.wedge_rotations(q)
    pairs = [
        catalog.rose_rotation(q, 2 * (q - 1)),
        catalog.wedge_diagonal(q),
        catalog.bipartite_block_rotation(q),
        (g, left),
        (g, right),
        (g, compose(left, right)),
    ]
    pairs += [catalog.theta_rotation(q, s, q - 1 - s) for s in range(q)]
    assert assert_round_trips(ZpGraph(g, a, q) for g, a in pairs) == len(pairs)
    graphs = [build() for build in catalog.RANK4_SINGULAR.values()]
    assert assert_round_trips(graphs) == 17


def rose_rotation_json():
    g, a = catalog.rose_rotation(3, 4)
    return ZpGraph(g, a, 3).to_json()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"vertices": -1}, "vertex count must be >= 0"),
        ({"target": [0] * 6}, "sigma and target must have equal length"),
        ({"sigma": [1, 0, 3, 2, 5, 4, 6], "target": [0] * 7}, "dart count must be even"),
        ({"sigma": [2, 0, 3, 2, 5, 4, 7, 6]}, "sigma is not an involution"),
        ({"sigma": [0, 1, 3, 2, 5, 4, 7, 6]}, "sigma must be fixed-point free"),
        ({"target": [0] * 7 + [1]}, "target vertex out of range"),
        ({"half_edges": 6}, "half_edges field inconsistent with sigma length"),
        ({"p": 4}, "p must be an odd prime"),
        ({"action_hperm": [0] * 8}, "action is not an automorphism of the graph"),
        ({"action_hperm": [2, 1, 0, 3, 4, 5, 6, 7]}, "action is not an automorphism of the graph"),
        ({"p": 5}, "action has order 3, expected 5"),
        ({"action_hperm": [7, 6, 5, 4, 3, 2, 1, 0]}, "action has order 2, expected 3"),
        ({"vertices": 2**70}, "every vertex must be the target of a dart"),
        ({"vertices": 2}, "every vertex must be the target of a dart"),
    ],
)
def test_from_json_rejects_each_fault(change, message):
    with pytest.raises(ValueError) as info:
        ZpGraph.from_json({**rose_rotation_json(), **change})
    assert str(info.value) == message


def test_from_json_accepts_an_identity_action():
    zg = ZpGraph.from_json({**rose_rotation_json(), "action_hperm": list(range(8)), "p": 5})
    assert zg.trivial and zg.group() == [zg.action]
    assert not ZpGraph.from_json(rose_rotation_json()).trivial
