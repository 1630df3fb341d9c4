"""Canonical forms, automorphism groups and orbit machinery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinelab import catalog, equivariant, symmetry
from spinelab.graphs import HalfEdgeGraph, build_graph, collapse, enumerate_forests
from spinelab.spine import GraphClass, _orbit, singular_graphs
from spinelab.symmetry import (
    _dart_freedom,
    _vertex_group,
    GraphAutomorphism,
    apply_to_graph,
    automorphism_order,
    bundle_names,
    bundle_perms,
    canonical_form,
    compose,
    inverse,
    is_automorphism,
    perm_order,
    realize_multiplicity,
    sylow_p_order,
    vertex_group_order,
)
from spinelab.verification import _dart_relabelling, forest_orbit_check, relabelling_check

import search_oracle
from census_oracle import _candidates, every_vertex_census
from dart_oracle import (
    _vertex_fixing_maps,
    are_isomorphic,
    automorphism_group,
    dart_isomorphisms,
    elements_of_order,
    isomorphism,
    vertex_perms,
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


@pytest.mark.parametrize("n,classes,matrices", [(3, 8, 18), (4, 43, 1180)])
def test_every_vertex_relabelling_has_the_class_form(n, classes, matrices):
    """Each distinct relabelled multiplicity matrix of every rank-n class
    is searched to the class's form, and their number times the order of
    the vertex group from the class's own search is the factorial of its
    vertex count."""
    graphs = every_vertex_census(n)
    checks = [relabelling_check(g) for g in graphs]
    assert [ok for ok, _ in checks] == [True] * classes
    assert sum(distinct for _, distinct in checks) == matrices


def test_relabellings_are_closed_under_adjacent_transpositions(monkeypatch):
    """The 245 distinct relabellings of the 17 classes at (3, 4) are found
    by building n - 1 matrices for each one: 1,080 matrices, where the n!
    vertex orders of the classes number 2,277."""
    from spinelab import verification

    builds = []
    real = verification._permuted
    monkeypatch.setattr(
        verification, "_permuted", lambda matrix, order: builds.append(order) or real(matrix, order)
    )
    graphs = [cls.graph for cls in singular_graphs(3, 4)]
    checks = [relabelling_check(g) for g in graphs]
    assert all(ok for ok, _ in checks)
    assert sum(distinct for _, distinct in checks) == 245
    each = [(g.vertex_count - 1) * distinct for g, (_, distinct) in zip(graphs, checks)]
    assert len(builds) == sum(each) == 1080


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
    assert len(group) == order
    assert sorted(_vertex_group(g)) == sorted({a.vperm for a in group}) == vertex_perms(g)


def test_vertex_groups_match_backtracking_oracle():
    # the group closed from the canonical search's generators against a
    # search that lists every vertex automorphism, on relabeled copies of
    # every admissible class of ranks 2 to 5
    rng = random.Random(16)
    graphs = [
        random_relabeling(g, rng) for n in (2, 3, 4, 5) for g in every_vertex_census(n) for _ in range(5)
    ]
    assert len(graphs) == 1935
    for g in graphs:
        assert sorted(_vertex_group(g)) == vertex_perms(g)


def test_vertex_group_order_from_the_stabilizer_chain():
    # the order read off the search's base and generators against the
    # group closed from them, on every admissible class of ranks 2 to 5
    # and a seeded relabelling of each, searched afresh
    rng = random.Random(24)
    classes = [g for n in (2, 3, 4, 5) for g in every_vertex_census(n)]
    assert len(classes) == 387
    for g in classes + [random_relabeling(g, rng) for g in classes]:
        assert vertex_group_order(canonical_form(g)) == len(_vertex_group(g))


def test_dart_freedom_counts_the_vertex_fixing_maps():
    classes = [g for n in (2, 3, 4) for g in every_vertex_census(n)]
    assert len(classes) == 53
    for g in classes:
        assert _dart_freedom(g) == len(_vertex_fixing_maps(g))
    assert _dart_freedom(catalog.rose(4)) == 384


def apply_oracle(g, a):
    """Relabel g along a by reading each new dart's preimage."""
    hinv = [0] * g.half_edge_count
    for i, h in enumerate(a.hperm):
        hinv[h] = i
    sigma = tuple(a.hperm[g.sigma[hinv[h]]] for h in range(g.half_edge_count))
    target = tuple(a.vperm[g.target[hinv[h]]] for h in range(g.half_edge_count))
    return HalfEdgeGraph(g.vertex_count, sigma, target)


def test_apply_to_graph_matches_the_inverse_construction():
    # on each rank-4 class and on a copy whose darts are shuffled, so
    # that the darts of one edge are not adjacent
    rng = random.Random(23)
    for g in every_vertex_census(4):
        darts = list(range(g.half_edge_count))
        rng.shuffle(darts)
        shuffled = apply_oracle(g, GraphAutomorphism(tuple(range(g.vertex_count)), tuple(darts)))
        for h in (g, shuffled):
            for _ in range(100):
                a = _dart_relabelling(h, rng)
                assert apply_to_graph(h, a) == apply_oracle(h, a)


def test_automorphisms_fix_graph():
    g = catalog.theta2_diamond_y()
    for a in automorphism_group(g):
        assert is_automorphism(g, a)
        assert apply_to_graph(g, a) == g


def test_group_closure_and_lagrange():
    g = catalog.theta_with_roses(3, 0, 2)
    group = automorphism_group(g)
    elements = set(group)
    sample = group[::7]
    for a in sample:
        assert inverse(a) in elements
        for b in sample:
            assert compose(a, b) in elements
    for a in group:
        assert len(group) % perm_order(a) == 0


def test_elements_of_order():
    k33 = automorphism_group(catalog.complete_bipartite(3, 3))
    assert len(elements_of_order(k33, 1)) == 1
    assert elements_of_order(k33, 3)
    small = automorphism_group(catalog.theta2_v_theta1_v_r1())
    assert not elements_of_order(small, 9)


def test_census_groups_are_the_whole_group(rank4_classes):
    """Each rank-4 singular class keeps its whole vertex group, and its
    order is that of the dart group the oracle lists."""
    for cls in rank4_classes:
        assert sorted(cls.vertex_group) == vertex_perms(cls.graph)
        assert cls.aut_order == len(automorphism_group(cls.graph))


@pytest.mark.parametrize("order,p,want", [(72, 3, 9), (48, 3, 3), (384, 3, 3)])
def test_sylow(order, p, want):
    assert sylow_p_order(order, p) == want


def bundle_group(g, vperms=None):
    """(vertex permutation, bundle permutation) pairs of the vertex group,
    or of the vertex permutations ``vperms``."""
    vperms = _vertex_group(g) if vperms is None else vperms
    return list(zip(vperms, bundle_perms(g, vperms, bundle_names(g))))


def test_orbit_single_edges_of_theta2():
    # the three edges are one bundle, named 0, fixed by the vertex swap
    theta = catalog.multi_edge(3)
    assert bundle_names(theta) == (0, 0, 0)
    orbit, fixing = _orbit(bundle_group(theta), frozenset([0]))
    assert list(orbit) == [frozenset([0])] and len(fixing) == 2


def test_orbit_stars_of_k33():
    k33 = catalog.complete_bipartite(3, 3)
    stars = []
    for v in range(6):
        star = frozenset(e for e in range(9) if v in k33.edge_endpoints(e))
        stars.append(star)
    orbit, fixing = _orbit(bundle_group(k33), stars[0])
    assert set(orbit) == set(stars) and len(fixing) == 72 // 6


def test_orbit_stabilizer_identity():
    g = catalog.theta2_colon_theta1()
    cls = GraphClass(g, automorphism_order(g), tuple(_vertex_group(g)))
    nonempty = len(enumerate_forests(g)) - 1
    assert forest_orbit_check(cls, nonempty)
    assert not forest_orbit_check(cls, nonempty + 1)


def test_trivial_group_orbits():
    # under the identity alone each bundle set is its own orbit
    g = catalog.theta2_colon_theta1()
    group = bundle_group(g, [tuple(range(g.vertex_count))])
    forests = [f for f in enumerate_forests(g, set(bundle_names(g))) if f]
    for f in forests:
        orbit, fixing = _orbit(group, f)
        assert list(orbit) == [f] and len(fixing) == 1


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


@settings(max_examples=200)
@given(multigraph_pairs(), st.data())
def test_form_equality_hashing_and_order_read_the_bytes(pair, data):
    # forms compare and hash by their rows and encode their bytes only when
    # read, so equality, hashing and order must still mean the bytes'
    g1, g2 = pair
    relabeled = apply_to_graph(g1, _relabeling(data, g1))
    forms = [canonical_form(g) for g in (g1, g2, relabeled)]
    for f in forms:
        for g in forms:
            assert (f == g) == (f.data == g.data)
            assert f != g or hash(f) == hash(g)
            assert (f < g) == (f.data < g.data)


def test_form_bytes_of_catalog_graphs():
    assert canonical_form(catalog.rose(4)).data == b"[1, [[4]]]"
    assert canonical_form(catalog.complete_bipartite(3, 3)).data == (
        b"[6, [[0], [0, 0], [0, 0, 0], [0, 1, 1, 1], [0, 1, 1, 1, 0], [0, 1, 1, 1, 0, 0]]]"
    )


@settings(max_examples=200)
@given(multigraph_pairs(), st.data())
def test_isomorphism_agrees_with_search_oracle(pair, data):
    g1, g2 = pair
    relabeled = apply_to_graph(g1, _relabeling(data, g1))
    for target in (g2, relabeled):
        iso = isomorphism(g1, target)
        assert (iso is None) == (not are_isomorphic(g1, target))
        if iso is not None:
            assert sorted(iso.vperm) == list(range(target.vertex_count))
            assert sorted(iso.hperm) == list(range(target.half_edge_count))
            assert apply_to_graph(g1, iso) == target
            for h in range(g1.half_edge_count):
                assert iso.hperm[g1.sigma[h]] == target.sigma[iso.hperm[h]]
                assert target.target[iso.hperm[h]] == iso.vperm[g1.target[h]]


@settings(max_examples=100)
@given(multigraphs(), st.data())
def test_collapse_commutes_with_relabeling(g, data):
    forest = data.draw(st.sampled_from(enumerate_forests(g)))
    f = _relabeling(data, g)
    relabeled = apply_to_graph(g, f)
    moved = {relabeled.dart_edge[f.hperm[g.edges[e][0]]] for e in forest}
    assert canonical_form(collapse(relabeled, moved)) == canonical_form(collapse(g, forest))


def oracle_min_matrix_data(g):
    """The canonical search without pruning: every vertex ordering that
    respects the refined colour cells is searched, with the same row
    bound.  Colours are refined from the matrix alone, valences included."""
    n = g.vertex_count
    mult = g.multiplicity

    def rank_keys(keys):
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        return [order[k] for k in keys]

    colors = rank_keys(
        [(mult[v][v] + sum(mult[v]), mult[v][v]) for v in range(n)]
    )
    while True:
        keys = [
            (colors[v], tuple(sorted((colors[u], mult[v][u]) for u in range(n) if u != v and mult[v][u])))
            for v in range(n)
        ]
        new = rank_keys(keys)
        if new == colors:
            break
        colors = new
    cells = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    best = []

    def search(order, remaining):
        depth = len(order)
        if depth == n:
            return
        pos = next(i for i, pool in enumerate(remaining) if pool)
        active = remaining[pos]
        for i, w in enumerate(active):
            row = (mult[w][w],) + tuple(mult[w][u] for u in order)
            if len(best) > depth:
                if row > best[depth]:
                    continue
                if row < best[depth]:
                    del best[depth:]
            if len(best) == depth:
                best.append(row)
            nxt = list(remaining)
            nxt[pos] = active[:i] + active[i + 1 :]
            search(order + [w], nxt)

    search([], [cells[c] for c in sorted(cells)])
    return tuple(best)


def test_pruned_search_matches_oracle_on_census_candidates():
    agree = [
        canonical_form(g).rows == oracle_min_matrix_data(g)
        for n in (2, 3, 4)
        for _, loops, lower in _candidates(n)
        for g in [realize_multiplicity(loops, lower)]
    ]
    assert len(agree) == 5510
    assert all(agree)


def test_pruned_search_matches_oracle_on_relabelings():
    rng = random.Random(11)
    classes = every_vertex_census(4)
    assert len(classes) == 43
    for g in classes:
        form = canonical_form(g)
        for _ in range(20):
            moved = random_relabeling(g, rng)
            assert canonical_form(moved).rows == oracle_min_matrix_data(moved) == form.rows


@pytest.mark.parametrize("make", [catalog.bipartite_block_rotation, catalog.wedge_diagonal])
@pytest.mark.parametrize("q", [5, 7])
def test_pruned_search_matches_oracle_on_blow_up_graphs(make, q):
    g, _ = make(q)
    assert canonical_form(g).rows == oracle_min_matrix_data(g)


def test_canonical_form_of_p11_bipartite_rotation():
    g, _ = catalog.bipartite_block_rotation(11)
    assert canonical_form(random_relabeling(g, random.Random(11))) == canonical_form(g)


@st.composite
def twin_heavy_multigraphs(draw):
    """K_{m,k} (m + k <= 7) with one bundle multiplicity and the same
    number of loops at each vertex of the m side: many twins, few colours."""
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    bundle, loops = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    edges = [(i, m + j) for i in range(m) for j in range(k)] * bundle
    return build_graph(m + k, edges + [(i, i) for i in range(m)] * loops)


@st.composite
def circulants(draw):
    """Vertex-transitive multigraphs on 3..7 vertices: one colour cell."""
    n = draw(st.integers(3, 7))
    steps = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=2))
    return build_graph(n, [(v, (v + s) % n) for v in range(n) for s in steps])


@st.composite
def small_multigraphs(draw):
    """Multigraphs with at most 7 vertices and 10 edges."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    return build_graph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=10)))


@settings(max_examples=300)
@given(st.one_of(small_multigraphs(), twin_heavy_multigraphs(), circulants()), st.data())
def test_pruned_search_matches_oracle(g, data):
    moved = apply_to_graph(g, _relabeling(data, g))
    assert canonical_form(g).rows == oracle_min_matrix_data(g)
    assert canonical_form(moved).rows == oracle_min_matrix_data(moved) == canonical_form(g).rows


def _recorded_searches(monkeypatch, module, run) -> list:
    """The (matrix, keys) argument of each search that ``run`` makes
    through ``module``'s name for the search."""
    searches = []
    inner = module._min_matrix_data
    monkeypatch.setattr(module, "_min_matrix_data", lambda *a: searches.append(a) or inner(*a))
    run()
    monkeypatch.undo()
    return searches


def _agrees_with_search_oracle(matrix, keys) -> bool:
    """The search and the search without forced steps and row readers give
    the same rows, labelling and generators."""
    return symmetry._min_matrix_data(matrix, keys) == search_oracle.min_matrix_data(matrix, keys)


def test_search_matches_oracle_on_every_rank4_relabelling(monkeypatch):
    graphs = every_vertex_census(4)
    searches = _recorded_searches(
        monkeypatch, symmetry, lambda: [relabelling_check(g) for g in graphs]
    )
    assert len({matrix for matrix, _ in searches}) == 1180
    assert all(_agrees_with_search_oracle(*search) for search in searches)


def test_search_matches_oracle_on_equivariant_keys(monkeypatch):
    """The key matrices mark the action's moves with unequal entries
    (u, v) and (v, u), so they are not symmetric.  Each census searches a
    (matrix, keys) pair once: 38 at (3, 4) and one at (5, 4)."""
    searches = _recorded_searches(
        monkeypatch,
        equivariant,
        lambda: [equivariant.enumerate_zp_graphs(p, 4, 9) for p in (3, 5)],
    )
    assert any(
        matrix[u][v] != matrix[v][u]
        for matrix, _ in searches
        for u in range(len(matrix))
        for v in range(u)
    )
    assert len(searches) == len(set(searches)) == 39
    assert all(_agrees_with_search_oracle(*search) for search in searches)


@st.composite
def coloured_matrices(draw):
    """Square matrices on up to 7 vertices with keys of two colours, so
    that cells repeat; a circulant has a vertex-transitive group, and a
    symmetric draw is a multiplicity matrix."""
    n = draw(st.integers(0, 7))
    entry = st.sampled_from([0, 0, 0, 1, 2])
    if n and draw(st.booleans()):
        steps = draw(st.lists(entry, min_size=n, max_size=n))
        matrix = [[steps[(v - u) % n] for v in range(n)] for u in range(n)]
    else:
        matrix = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        matrix = [[matrix[min(u, v)][max(u, v)] for v in range(n)] for u in range(n)]
    return matrix, draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))


@settings(max_examples=300)
@given(coloured_matrices())
def test_search_matches_oracle_on_drawn_matrices(drawn):
    assert _agrees_with_search_oracle(*drawn)
