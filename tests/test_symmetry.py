"""Canonical forms, automorphism groups and orbit machinery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinelab import catalog
from spinelab.graphs import build_graph, collapse, enumerate_forests
from spinelab.symmetry import (
    AutGroupTooLarge,
    GraphAutomorphism,
    apply_to_graph,
    are_isomorphic,
    automorphism_group,
    automorphism_order,
    canonical_form,
    compose,
    dart_isomorphisms,
    edge_permutation,
    elements_of_order,
    identity_automorphism,
    inverse,
    is_automorphism,
    orbits,
    perm_order,
    sylow_p_order,
)


def random_relabeling(g, rng):
    vperm = list(range(g.vertex_count))
    rng.shuffle(vperm)
    edge_order = list(range(g.edge_count))
    rng.shuffle(edge_order)
    hperm = [0] * g.half_edge_count
    for new_e, old_e in enumerate(edge_order):
        h1, h2 = g.edges[old_e]
        if rng.random() < 0.5:
            h1, h2 = h2, h1
        hperm[h1], hperm[h2] = 2 * new_e, 2 * new_e + 1
    return apply_to_graph(g, GraphAutomorphism(tuple(vperm), tuple(hperm)))


def test_canonical_form_invariance():
    rng = random.Random(7)
    for make in catalog.RANK4_SINGULAR.values():
        g = make()
        base = canonical_form(g)
        for _ in range(20):
            assert canonical_form(random_relabeling(g, rng)) == base


def test_canonical_form_distinguishes():
    theta11 = catalog.theta_with_roses(3, 1, 1)
    theta02 = catalog.theta_with_roses(3, 0, 2)
    assert canonical_form(theta11) != canonical_form(theta02)
    assert canonical_form(catalog.triangle_with_loops()) != canonical_form(
        catalog.doubled_triangle()
    )


def test_canonical_graph_is_isomorphic_representative():
    g = catalog.prism()
    rep = canonical_form(g).graph()
    assert canonical_form(rep) == canonical_form(g)
    assert are_isomorphic(rep, g)


@pytest.mark.parametrize(
    "make,order",
    [
        (lambda: catalog.rose(4), 384),
        (lambda: catalog.complete_bipartite(3, 3), 72),
        (lambda: catalog.multi_edge(5), 240),
    ],
)
def test_automorphism_orders(make, order):
    g = make()
    assert automorphism_order(g) == order
    group = automorphism_group(g)
    assert group.order == order


def test_automorphisms_fix_graph():
    g = catalog.theta2_diamond_y()
    group = automorphism_group(g)
    for a in group.elements:
        assert is_automorphism(g, a)
        assert apply_to_graph(g, a) == g


def test_group_closure_and_lagrange():
    g = catalog.theta_with_roses(3, 0, 2)
    group = automorphism_group(g)
    elements = set(group.elements)
    sample = group.elements[::7]
    for a in sample:
        assert inverse(a) in elements
        for b in sample:
            assert compose(a, b) in elements
    for a in group.elements:
        assert group.order % perm_order(a) == 0


def test_elements_of_order():
    k33 = automorphism_group(catalog.complete_bipartite(3, 3))
    assert len(elements_of_order(k33, 1)) == 1
    assert elements_of_order(k33, 3)
    small = automorphism_group(catalog.theta2_v_theta1_v_r1())
    assert not elements_of_order(small, 9)


def test_element_cap():
    with pytest.raises(AutGroupTooLarge):
        automorphism_group(catalog.rose(4), element_cap=100)


@pytest.mark.parametrize("order,p,want", [(72, 3, 9), (48, 3, 3), (384, 3, 3)])
def test_sylow(order, p, want):
    assert sylow_p_order(order, p) == want


def forest_action(group):
    lookup = {a: edge_permutation(group.graph, a) for a in group.elements}
    return lambda a, f: frozenset(lookup[a][e] for e in f)


def test_orbit_single_edges_of_theta2():
    theta = catalog.multi_edge(3)
    group = automorphism_group(theta)
    singles = [frozenset([e]) for e in range(3)]
    out = orbits(group, singles, forest_action(group))
    assert len(out) == 1 and len(out[0].members) == 3


def test_orbit_stars_of_k33():
    k33 = catalog.complete_bipartite(3, 3)
    group = automorphism_group(k33)
    stars = []
    for v in range(6):
        star = frozenset(e for e in range(9) if v in k33.edge_endpoints(e))
        stars.append(star)
    out = orbits(group, stars, forest_action(group))
    assert len(out) == 1 and len(out[0].members) == 6


def test_orbit_stabilizer_identity():
    g = catalog.theta2_colon_theta1()
    group = automorphism_group(g)
    action = forest_action(group)
    forests = [f for f in enumerate_forests(g) if f]
    for orbit in orbits(group, forests, action):
        assert len(orbit.members) * orbit.stabilizer_order == group.order


def test_trivial_group_orbits():
    from spinelab.symmetry import AutGroup

    g = catalog.multi_edge(3)
    trivial = AutGroup(g, (identity_automorphism(g),))
    singles = [frozenset([e]) for e in range(3)]
    out = orbits(trivial, singles, forest_action(trivial))
    assert len(out) == 3


def test_dart_isomorphism_respects_structure():
    g1 = catalog.alternating_hexagon()
    rng = random.Random(3)
    g2 = random_relabeling(g1, rng)
    iso = next(dart_isomorphisms(g1, g2))
    for h in range(g1.half_edge_count):
        assert iso.hperm[g1.sigma[h]] == g2.sigma[iso.hperm[h]]
        assert g2.target[iso.hperm[h]] == iso.vperm[g1.target[h]]


def test_non_isomorphic_yield_nothing():
    assert not are_isomorphic(catalog.triangle_with_loops(), catalog.doubled_triangle())


def _multigraph(n, edge_count=None):
    vertex = st.integers(0, n - 1)
    size = {"max_size": 6} if edge_count is None else {"min_size": edge_count, "max_size": edge_count}
    return st.lists(st.tuples(vertex, vertex), **size).map(lambda edges: build_graph(n, edges))


@st.composite
def multigraphs(draw):
    """Multigraphs with at most 4 vertices and 6 edges; loops, parallel
    edges, isolated vertices and several components allowed."""
    return draw(_multigraph(draw(st.integers(1, 4))))


@st.composite
def multigraph_pairs(draw):
    """Two such multigraphs with equal vertex and edge counts, so that
    isomorphic and near-miss pairs both come up often."""
    first = draw(multigraphs())
    return first, draw(_multigraph(first.vertex_count, first.edge_count))


def _relabeling(data, g):
    return GraphAutomorphism(
        tuple(data.draw(st.permutations(range(g.vertex_count)))),
        tuple(data.draw(st.permutations(range(g.half_edge_count)))),
    )


@settings(max_examples=200)
@given(multigraph_pairs(), st.data())
def test_canonical_form_equality_is_isomorphism(pair, data):
    g1, g2 = pair
    assert (canonical_form(g1) == canonical_form(g2)) == are_isomorphic(g1, g2)
    relabeled = apply_to_graph(g1, _relabeling(data, g1))
    assert canonical_form(relabeled) == canonical_form(g1)
    assert are_isomorphic(g1, relabeled)


@settings(max_examples=100)
@given(multigraphs(), st.data())
def test_collapse_commutes_with_relabeling(g, data):
    forest = data.draw(st.sampled_from(enumerate_forests(g)))
    f = _relabeling(data, g)
    relabeled = apply_to_graph(g, f)
    moved = {relabeled.dart_edge[f.hperm[g.edges[e][0]]] for e in forest}
    assert canonical_form(collapse(relabeled, moved)) == canonical_form(collapse(g, forest))
