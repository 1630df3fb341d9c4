"""Core multigraph operations, checked against brute-force oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinelab import catalog
from spinelab.graphs import (
    CollapseResult,
    HalfEdgeGraph,
    NotAForestError,
    build_graph,
    collapse,
    collapse_with_maps,
    enumerate_forests,
    is_admissible,
    is_forest,
    rank,
    two_edge_connected,
)
from spinelab.symmetry import GraphAutomorphism, apply_to_graph, canonical_form

from census_oracle import every_vertex_census
from dart_oracle import degree_multiset


def brute_force_forests(g) -> list:
    """Oracle: every subset of the edges, by size and then in
    lexicographic order, kept when it is a forest, that is, when
    |edges| = |touched vertices| - #components."""
    found = []
    for r in range(g.edge_count + 1):
        for sub in itertools.combinations(range(g.edge_count), r):
            if any(g.is_loop(e) for e in sub):
                continue
            verts = set()
            adj = {}
            for e in sub:
                u, v = g.edge_endpoints(e)
                verts |= {u, v}
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
            seen = set()
            comps = 0
            for s in verts:
                if s in seen:
                    continue
                comps += 1
                stack = [s]
                seen.add(s)
                while stack:
                    x = stack.pop()
                    for y in adj[x]:
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
            if len(sub) == len(verts) - comps:
                found.append(frozenset(sub))
    return found


def test_rank_examples():
    assert rank(catalog.rose(4)) == 4
    assert rank(catalog.multi_edge(5)) == 4  # 5 edges on 2 vertices
    assert rank(catalog.complete_bipartite(3, 3)) == 4


def test_rank_disconnected():
    g = build_graph(2, [(0, 0), (1, 1)])
    assert rank(g) == 2


def test_admissibility():
    assert is_admissible(catalog.complete_bipartite(3, 3))
    # two roses joined by a single edge: the joining edge separates
    bridge = build_graph(2, [(0, 0), (0, 0), (1, 1), (1, 1), (0, 1)])
    assert not is_admissible(bridge)
    # subdividing an edge creates a valency-2 vertex
    subdivided = build_graph(3, [(0, 1), (0, 1), (0, 2), (2, 1)])
    assert not is_admissible(subdivided)
    assert not is_admissible(build_graph(2, [(0, 0), (0, 0), (1, 1), (1, 1)]))


def _connected(n, edges):
    """Oracle: a search from vertex 0 over the (u, v) pairs reaches all n."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for y in adj[stack.pop()] - seen:
            seen.add(y)
            stack.append(y)
    return n > 0 and len(seen) == n


def oracle_two_edge_connected(g):
    """Oracle: connected, and removing any one edge leaves it connected."""
    edges = [g.edge_endpoints(e) for e in range(g.edge_count)]
    return _connected(g.vertex_count, edges) and all(
        _connected(g.vertex_count, edges[:e] + edges[e + 1 :]) for e in range(len(edges))
    )


def oracle_admissible(g):
    return oracle_two_edge_connected(g) and all(
        g.valences[v] >= 3 for v in range(g.vertex_count)
    )


@st.composite
def multigraphs(draw):
    """Multigraphs with at most 5 vertices and 8 edges; loops, parallel
    edges, isolated vertices and several components allowed."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    return build_graph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=8)))


@settings(max_examples=400)
@given(multigraphs())
def test_bridge_finder_matches_edge_removal(g):
    assert two_edge_connected(g.multiplicity) == oracle_two_edge_connected(g)
    assert is_admissible(g) == oracle_admissible(g)


@settings(max_examples=100)
@given(multigraphs())
def test_valences_count_darts(g):
    mult = g.multiplicity
    assert g.valences == tuple(g.target.count(v) for v in range(g.vertex_count))
    assert g.valences == tuple(mult[v][v] + sum(mult[v]) for v in range(g.vertex_count))
    assert degree_multiset(g) == tuple(sorted(g.valences))


def test_negative_vertex_count_is_rejected():
    with pytest.raises(ValueError, match="vertex count must be >= 0"):
        HalfEdgeGraph.from_json({"vertices": -1, "half_edges": 0, "sigma": [], "target": []})


def test_a_vertex_no_dart_reaches_is_rejected():
    """Every vertex of an admissible graph carries darts; the one-vertex
    graph with no darts is no input of any command."""
    with pytest.raises(ValueError, match="every vertex must be the target of a dart"):
        HalfEdgeGraph.from_json({"vertices": 1, "half_edges": 0, "sigma": [], "target": []})
    empty = {"vertices": 0, "half_edges": 0, "sigma": [], "target": []}
    assert HalfEdgeGraph.from_json(empty) == HalfEdgeGraph(0, (), ())


@pytest.mark.parametrize(
    "vertices, ends, core",
    [
        # two 2-loop roses joined at the root of the search
        (2, (0, 1), [(0, 0), (0, 0), (1, 1), (1, 1)]),
        # a triple edge, then the bundle, then a 2-loop rose: the bundle
        # leaves a vertex below the root
        (3, (1, 2), [(0, 1), (0, 1), (0, 1), (2, 2), (2, 2)]),
    ],
)
def test_two_fold_bundle_is_not_a_bridge(vertices, ends, core):
    assert is_admissible(build_graph(vertices, core + [ends, ends]))
    assert not is_admissible(build_graph(vertices, core + [ends]))


def test_forests_rose():
    assert enumerate_forests(catalog.rose(4)) == [frozenset()]


def test_forests_theta2():
    forests = enumerate_forests(catalog.multi_edge(3))
    assert len(forests) == 4
    assert frozenset() in forests
    assert all(len(f) <= 1 for f in forests)


def test_forests_k33_oracle():
    k33 = catalog.complete_bipartite(3, 3)
    assert len(brute_force_forests(k33)) == 328  # frozen from the subset oracle
    assert len(enumerate_forests(k33)) == 328


@pytest.mark.parametrize(
    "make", [catalog.theta2_colon_theta1, catalog.alternating_hexagon, catalog.prism]
)
def test_forests_match_oracle(make):
    g = make()
    assert enumerate_forests(g) == brute_force_forests(g)


@settings(max_examples=200)
@given(multigraphs(), st.data())
def test_forests_match_brute_force(g, data):
    """The whole list, in order, and the forests within a drawn edge set."""
    brute = brute_force_forests(g)
    assert enumerate_forests(g) == brute
    edges = data.draw(st.sets(st.integers(0, g.edge_count - 1))) if g.edge_count else set()
    assert enumerate_forests(g, edges) == [f for f in brute if f <= edges]
    assert is_forest(g, edges) == (frozenset(edges) in brute)


def test_forests_closed_under_subsets():
    g = catalog.theta2_star_star_theta1()
    forests = set(enumerate_forests(g))
    for f in forests:
        for r in range(len(f)):
            for sub in itertools.combinations(f, r):
                assert frozenset(sub) in forests


def test_collapse_star_of_k33():
    k33 = catalog.complete_bipartite(3, 3)
    # edges at one block vertex form a star on the opposite block
    star = [e for e in range(9) if 0 in k33.edge_endpoints(e)]
    assert len(star) == 3 and is_forest(k33, star)
    quotient = collapse(k33, star)
    assert canonical_form(quotient) == canonical_form(catalog.wedge_of_multi_edges(3, 3))


def test_collapse_singles_of_hexagon():
    s0 = catalog.alternating_hexagon()
    singles = [e for e in range(9) if s0.multiplicity[s0.edge_endpoints(e)[0]][s0.edge_endpoints(e)[1]] == 1]
    assert len(singles) == 3
    quotient = collapse(s0, singles)
    assert canonical_form(quotient) == canonical_form(catalog.doubled_triangle())


def test_collapse_empty_is_identity():
    g = catalog.prism()
    assert collapse(g, []) == g


def test_collapse_rejects_cycles():
    theta = catalog.multi_edge(3)
    with pytest.raises(NotAForestError):
        collapse(theta, [0, 1])


def test_collapse_rejects_loops():
    g = build_graph(2, [(0, 1), (1, 1), (0, 1)])
    with pytest.raises(NotAForestError, match="cycle detected in forest argument"):
        collapse(g, [0, 1])


def test_collapse_preserves_rank():
    for make in catalog.RANK4_SINGULAR.values():
        g = make()
        for forest in enumerate_forests(g):
            assert rank(collapse(g, forest)) == 4


def test_nested_collapse_composition():
    g = catalog.theta2_star_star_theta1()
    forests = [f for f in enumerate_forests(g) if f]
    for big in forests:
        for small in forests:
            if small < big:
                res = collapse_with_maps(g, small)
                image = frozenset(res.edge_map[e] for e in big - small)
                two_step = collapse(res.graph, image)
                one_step = collapse(g, big)
                assert canonical_form(two_step) == canonical_form(one_step)


def least_companions(n, pairs) -> list:
    """Each vertex's least vertex in its component of the graph on
    range(n) with edges ``pairs``, by a plain depth-first search."""
    adjacent = [[] for _ in range(n)]
    for u, v in pairs:
        adjacent[u].append(v)
        adjacent[v].append(u)
    least = [None] * n
    for v in range(n):
        if least[v] is None:
            least[v], stack = v, [v]
            while stack:
                for y in adjacent[stack.pop()]:
                    if least[y] is None:
                        least[y] = v
                        stack.append(y)
    return least


def collapse_oracle(g, forest) -> CollapseResult:
    """The collapse built from edges: darts of forest edges dropped,
    vertex classes numbered by their least vertices, and each surviving
    edge looked up in the quotient's own dart-to-edge table."""
    least = least_companions(g.vertex_count, [g.edge_endpoints(e) for e in forest])
    kept = [h for h in range(g.half_edge_count) if g.dart_edge[h] not in forest]
    dart_map = [None] * g.half_edge_count
    for new, old in enumerate(kept):
        dart_map[old] = new
    roots = sorted(set(least))
    class_index = {root: i for i, root in enumerate(roots)}
    new_sigma = [0] * len(kept)
    for old in kept:
        new_sigma[dart_map[old]] = dart_map[g.sigma[old]]
    new_targets = [class_index[least[g.target[old]]] for old in kept]
    quotient = HalfEdgeGraph(len(roots), tuple(new_sigma), tuple(new_targets))
    edge_map = tuple(
        None if e in forest else quotient.dart_edge[dart_map[h1]] for e, (h1, _) in enumerate(g.edges)
    )
    vertex_map = tuple(class_index[least[v]] for v in range(g.vertex_count))
    return CollapseResult(quotient, vertex_map, tuple(dart_map), edge_map)


def oracle_rank(g) -> int:
    """Edges less vertices plus components, by a plain search."""
    ends = [g.edge_endpoints(e) for e in range(g.edge_count)]
    return g.edge_count - g.vertex_count + len(set(least_companions(g.vertex_count, ends)))


@settings(max_examples=200)
@given(multigraphs(), st.data())
def test_collapse_and_rank_match_the_oracles(g, data):
    forest = data.draw(st.sampled_from(brute_force_forests(g)))
    res = collapse_with_maps(g, forest)
    assert res == collapse_oracle(g, forest)
    assert rank(g) == oracle_rank(g) == rank(res.graph) == oracle_rank(res.graph)


def test_collapse_maps_match_the_edge_construction():
    # every forest of every rank-4 class, and of a copy of each whose
    # darts are shuffled, so that the darts of one edge are not adjacent
    rng = random.Random(24)
    count = 0
    for g in every_vertex_census(4):
        darts = list(range(g.half_edge_count))
        rng.shuffle(darts)
        shuffled = apply_to_graph(g, GraphAutomorphism(tuple(range(g.vertex_count)), tuple(darts)))
        for h in (g, shuffled):
            for forest in enumerate_forests(h):
                assert collapse_with_maps(h, forest) == collapse_oracle(h, forest)
                count += 1
    assert count == 2 * 2807


def test_json_round_trip():
    g = catalog.theta2_diamond_y()
    assert HalfEdgeGraph.from_json(g.to_json()) == g
