"""Symmetry census, Nielsen moves and blow-ups for small primes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinelab import catalog, equivariant
from spinelab.equivariant import (
    BudgetExceeded,
    ZpGraph,
    _census_order,
    _dedup_expansion_pairs,
    _equivariant_key,
    classify_reduced,
    dedup_equivariant,
    enumerate_zp_graphs,
    equivariant_collapse,
    equivariant_expansions,
    invariant_forests,
    nielsen_closure,
    nielsen_moves,
    reduce_zp,
)
from spinelab.graphs import enumerate_forests, is_forest, rank
from spinelab.symmetry import (
    GraphAutomorphism,
    apply_to_graph,
    canonical_form,
    compose,
    edge_permutation,
    inverse,
    perm_order,
    power,
)

from census_oracle import every_vertex_census, singular_by_filter
from dart_oracle import automorphism_group, dart_isomorphisms, elements_of_order
from zp_census_oracle import (
    realize_quotient_data,
    reduced_sweep,
    stratum_raw,
    sweep_candidates,
    sweep_zp_graphs,
)


# ---------------------------------------------------------------------------
# pairwise oracles for the equivariant key


def equivariant_isomorphisms(zg1, zg2):
    """Yield (iso, k) with iso . a1 = a2^k . iso; k runs over units mod p."""
    if zg1.p != zg2.p or zg1.trivial != zg2.trivial:
        return
    if zg1.trivial:
        for iso in dart_isomorphisms(zg1.graph, zg2.graph):
            yield iso, 0
        return
    for k in range(1, zg1.p):
        b = power(zg2.action, k)
        for iso in dart_isomorphisms(zg1.graph, zg2.graph, intertwine=(zg1.action, b)):
            yield iso, k


def equivariant_isomorphic(zg1, zg2):
    return next(equivariant_isomorphisms(zg1, zg2), None) is not None


def pairs_equivalent(zg1, f1, zg2, f2):
    """Some equivariant isomorphism zg1 -> zg2 carries forest f1 onto f2."""
    if len(f1) != len(f2):
        return False
    for iso, _ in equivariant_isomorphisms(zg1, zg2):
        ep = tuple(zg2.graph.dart_edge[iso.hperm[h1]] for h1, _ in zg1.graph.edges)
        if frozenset(ep[e] for e in f1) == frozenset(f2):
            return True
    return False


def wedge(p, which="diag"):
    g, left, right = catalog.wedge_rotations(p)
    actions = {"diag": compose(left, right), "left": left, "right": right}
    return ZpGraph(g, actions[which], p)


def test_action_order_is_validated():
    g, a = catalog.rose_rotation(3, 4)
    assert perm_order(a) == 3
    with pytest.raises(ValueError):
        ZpGraph.from_json(ZpGraph(g, a, 5).to_json())
    g, a = catalog.rose_rotation(4, 4)
    assert perm_order(a) == 4
    with pytest.raises(ValueError, match="odd prime"):
        ZpGraph.from_json(ZpGraph(g, a, 4).to_json())


def test_is_reduced_examples():
    assert not invariant_forests(ZpGraph(*catalog.rose_rotation(5, 8), 5))
    assert not invariant_forests(ZpGraph(*catalog.theta_rotation(5, 2, 2), 5))
    assert invariant_forests(wedge(5, "left"))
    assert not invariant_forests(wedge(5, "diag"))


def test_is_reduced_cross_checked_with_forest_filter():
    """Reducedness agrees with filtering all forests for invariance."""
    for zg in (wedge(3, "diag"), wedge(3, "left"), ZpGraph(*catalog.bipartite_block_rotation(3), 3)):
        ep = edge_permutation(zg.graph, zg.action)
        brute = [
            f
            for f in enumerate_forests(zg.graph)
            if f and frozenset(ep[e] for e in f) == f
        ]
        assert sorted(map(sorted, brute)) == sorted(map(sorted, invariant_forests(zg)))
        assert equivariant._reduced_for_group(zg.graph, zg.group()) == (not brute)


def recursive_invariant_forests(zg: ZpGraph) -> list:
    """Oracle: the depth-first search over acyclic edge orbits that each
    check the whole union with ``is_forest``, sorted afterwards."""
    orbits = [o for o in zg.edge_orbits() if is_forest(zg.graph, o)]
    out = []

    def extend(prefix: list, start: int):
        if prefix:
            out.append(frozenset(e for o in prefix for e in o))
        for i in range(start, len(orbits)):
            candidate = prefix + [orbits[i]]
            if is_forest(zg.graph, [e for o in candidate for e in o]):
                extend(candidate, i + 1)

    extend([], 0)
    return sorted(out, key=lambda f: (len(f), tuple(sorted(f))))


def test_invariant_forests_match_the_recursive_search():
    zgs = [zg for args in ((3, 4, 9), (5, 4, 9), (3, 5, 12)) for zg in enumerate_zp_graphs(*args)]
    assert len(zgs) == 19 + 1 + 96
    assert sum(len(invariant_forests(zg)) for zg in zgs) == 47 + 1487
    assert all(invariant_forests(zg) == recursive_invariant_forests(zg) for zg in zgs)


def test_reduce_left_wedge_gives_theta():
    reduced = reduce_zp(wedge(5, "left"))
    want = ZpGraph(*catalog.theta_rotation(5, 0, 4), 5)
    assert equivariant_isomorphic(reduced, want)


@pytest.mark.parametrize("p,count", [(5, 5), (7, 6)])
def test_classify_reduced_counts(p, count):
    assert len(classify_reduced(p)) == count


def test_classify_reduced_5_matches_catalog():
    classes = classify_reduced(5)
    expected = [ZpGraph(*catalog.rose_rotation(5, 8), 5)]
    for s in (0, 1, 2):
        expected.append(ZpGraph(*catalog.theta_rotation(5, s, 4 - s), 5))
    expected.append(wedge(5, "diag"))
    for want in expected:
        assert sum(1 for c in classes if equivariant_isomorphic(want, c)) == 1


def census_zp_classes(classes, p):
    """Every order-p element of the classes' automorphism groups,
    deduplicated by key: the order-p subgroups of each group up to
    conjugacy, over all classes, an oracle for the census of graphs with
    an order-p symmetry."""
    out = []
    for cls in classes:
        group = automorphism_group(cls.graph)
        out += [ZpGraph(cls.graph, a, p) for a in elements_of_order(group, p)]
    return dedup_equivariant(out)


def test_classify_reduced_3_matches_census_oracle():
    rank4_classes = singular_by_filter(3, every_vertex_census(4))
    keys = [zg.key for zg in classify_reduced(3)]
    assert keys == [zg.key for zg in census_zp_classes(rank4_classes, 3) if not invariant_forests(zg)]
    assert len(keys) == 6


@pytest.mark.parametrize("p,n,count", [(3, 3, 4), (3, 4, 19), (5, 4, 1), (3, 5, 96)])
def test_closure_is_the_order_p_subgroup_census(p, n, count):
    """The closure at the full budget 3n - 3 has one class per conjugacy
    class of order-p subgroups of each census graph's automorphism group,
    in the same order: the census order ends with the key, so it depends
    only on the classes, not on the order in which they were found."""
    keys = [zg.key for zg in enumerate_zp_graphs(p, n, 3 * n - 3)]
    want = census_zp_classes(singular_by_filter(p, every_vertex_census(n)), p)
    assert keys == [zg.key for zg in want]
    assert len(keys) == count


def test_classify_reduced_3_contains_expected():
    classes = classify_reduced(3)
    expected = [
        ZpGraph(*catalog.rose_rotation(3, 4), 3),
        ZpGraph(*catalog.theta_rotation(3, 0, 2), 3),
        ZpGraph(*catalog.theta_rotation(3, 1, 1), 3),
        wedge(3, "diag"),
    ]
    for want in expected:
        assert any(equivariant_isomorphic(want, c) for c in classes)
    # strictly larger: fixed-point-free classes exist at p = 3
    fpf = [c for c in classes if c.fixed_vertex_count() == 0]
    assert fpf
    assert len(classes) > len(expected)


def test_enumerate_zp_graphs_examples():
    zs = enumerate_zp_graphs(5, 8, 10)
    rose = ZpGraph(*catalog.rose_rotation(5, 8), 5)
    assert any(equivariant_isomorphic(z, rose) for z in zs)
    assert any(equivariant_isomorphic(z, wedge(5, "diag")) for z in zs)
    assert all(z.fixed_vertex_count() > 0 for z in zs)
    assert all(rank(z.graph) == 8 for z in zs)


@pytest.mark.parametrize("p,n,max_edges", [(3, 3, 6), (5, 8, 10)])
def test_closure_matches_quotient_data_sweep(p, n, max_edges):
    want = [zg.key for zg in sweep_zp_graphs(p, n, max_edges)]
    assert [zg.key for zg in enumerate_zp_graphs(p, n, max_edges)] == want


def reduced_candidates(monkeypatch, p, n, max_edges):
    """The reduced graphs `_reduced_classes` builds, before deduplication."""
    with monkeypatch.context() as patch:
        patch.setattr(equivariant, "dedup_equivariant", list)
        return equivariant._reduced_classes(p, n, max_edges)


def graphs_and_actions(zgs):
    return [(zg.graph, zg.action) for zg in zgs]


@pytest.mark.parametrize(
    "p,n",
    [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 4), (5, 5), (5, 6), (7, 6), (5, 8)],
)
def test_reduced_construction_matches_the_sweep(monkeypatch, p, n):
    """The graphs built from connected quotient data are those the sweep
    over every unit count keeps, labelled alike and in the same order, at
    the full budget and at the budget of the smallest graphs."""
    for max_edges in (n, 3 * n - 3):
        want = graphs_and_actions(reduced_sweep(p, n, max_edges))
        assert graphs_and_actions(reduced_candidates(monkeypatch, p, n, max_edges)) == want


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_classify_reduced_matches_the_sweep(q):
    n = 2 * (q - 1)
    want = dedup_equivariant(reduced_sweep(q, n, 3 * n - 3))
    got = classify_reduced(q)
    assert [zg.key for zg in got] == [zg.key for zg in want]
    assert graphs_and_actions(got) == graphs_and_actions(want)


@pytest.mark.parametrize("p,n,count", [(3, 4, 9), (3, 7, 130), (5, 8, 9), (7, 12, 11), (13, 24, 17)])
def test_every_realized_reduced_graph_is_kept(monkeypatch, p, n, count):
    """Only admissible nontrivial quotient data is realized."""
    realized = []
    real = equivariant.realize_quotient_data

    def spy(*args):
        realized.append(real(*args))
        return realized[-1]

    monkeypatch.setattr(equivariant, "realize_quotient_data", spy)
    got = reduced_candidates(monkeypatch, p, n, 3 * n - 3)
    assert len(got) == count
    assert [id(zg) for zg in got] == [id(zg) for zg in realized]


@pytest.mark.parametrize(
    "census,args",
    [(enumerate_zp_graphs, (4, 2, 1)), (enumerate_zp_graphs, (-3, 2, 3)), (classify_reduced, (1,))],
    ids=["enumerate-p4", "enumerate-p-3", "classify-p1"],
)
def test_census_validates_p_up_front(census, args):
    with pytest.raises(ValueError, match="^p must be an odd prime$"):
        census(*args)


def test_census_budget_is_at_most_3n_minus_3():
    with pytest.raises(BudgetExceeded, match="^edge budget 7 exceeds 3\\*rank-3 = 6$"):
        enumerate_zp_graphs(3, 3, 7)


def test_dedup_collapses_conjugate_powers():
    g, a = catalog.theta_rotation(3, 0, 2)
    squared = ZpGraph(g, power(a, 2), 3)
    assert equivariant_isomorphic(ZpGraph(g, a, 3), squared)
    assert len(dedup_equivariant([ZpGraph(g, a, 3), squared])) == 1


def test_nielsen_moves_preserve_rank_and_vertices():
    zg = ZpGraph(*catalog.theta_rotation(3, 1, 1), 3)
    for move in nielsen_moves(zg):
        assert rank(move.result.graph) == rank(zg.graph)
        assert move.result.graph.vertex_count == zg.graph.vertex_count


def test_nielsen_rose_results_isomorphic():
    zg = ZpGraph(*catalog.rose_rotation(5, 8), 5)
    moves = nielsen_moves(zg)
    assert moves
    assert all(equivariant_isomorphic(reduce_zp(m.result), zg) for m in moves)


def test_nielsen_theta_results_isomorphic():
    zg = ZpGraph(*catalog.theta_rotation(5, 0, 4), 5)
    for move in nielsen_moves(zg):
        assert equivariant_isomorphic(reduce_zp(move.result), zg)


def test_nielsen_closures_p3():
    for start in (ZpGraph(*catalog.rose_rotation(3, 4), 3), wedge(3, "diag")):
        closure = nielsen_closure(start)
        assert len(closure) == 1


def test_collapse_transports_action():
    zg = ZpGraph(*catalog.bipartite_block_rotation(3), 3)
    star = next(f for f in invariant_forests(zg) if len(f) == 3)
    collapsed = equivariant_collapse(zg, star)
    assert equivariant_isomorphic(collapsed, wedge(3, "diag"))


def test_expansion_round_trip_p3():
    target = wedge(3, "diag")
    pairs = equivariant_expansions(target, 9)
    assert len(pairs) == 1
    candidate, forest = pairs[0]
    assert is_forest(candidate.graph, forest)
    bip = ZpGraph(*catalog.bipartite_block_rotation(3), 3)
    assert equivariant_isomorphic(candidate, bip)
    assert equivariant_isomorphic(equivariant_collapse(candidate, forest), target)


def test_expansion_budget_zero():
    assert equivariant_expansions(wedge(3, "diag"), 0) == []


def test_no_expansion_of_bipartite_p3():
    bip = ZpGraph(*catalog.bipartite_block_rotation(3), 3)
    assert equivariant_expansions(bip, 12) == []


@pytest.mark.parametrize("q", [7, 11])
def test_wedge_blow_up_is_the_bipartite_rotation(q):
    budget = 3 * 2 * (q - 1) - 3
    pairs = equivariant_expansions(ZpGraph(*catalog.wedge_diagonal(q), q), budget)
    assert len(pairs) == 1
    candidate, forest = pairs[0]
    bip = ZpGraph(*catalog.bipartite_block_rotation(q), q)
    assert equivariant_isomorphic(candidate, bip)
    ends = [set(candidate.graph.edge_endpoints(e)) for e in forest]
    assert len(forest) == q and is_forest(candidate.graph, forest)
    assert set.intersection(*ends)
    assert equivariant_expansions(bip, budget) == []


def search_expansions(zg, edge_budget):
    """Blow-ups by generate and test, an oracle for the direct construction.

    Contracting a fixed edge keeps the number of free vertex orbits and
    contracting a star or matching orbit lowers it by one, so every blow-up
    lies in one of two quotient-data strata.  Realize all of both, collapse
    every single-orbit forest and keep what collapses to zg.
    """
    p = zg.p
    v, e = zg.graph.vertex_count, zg.graph.edge_count
    m = zg.free_vertex_orbit_count()
    strata = []
    if e + 1 <= edge_budget:
        strata.append((v + 1, e + 1, v + 1 - m * p, m))
    if e + p <= edge_budget:
        strata.append((v + p, e + p, v + p - (m + 1) * p, m + 1))
    pairs = []
    for vv, ee, ff, mm in strata:
        if ff < 0:
            continue
        for candidate in stratum_raw(p, vv, ee, ff, mm):
            if rank(candidate.graph) != rank(zg.graph):
                continue
            for orbit in candidate.edge_orbits():
                forest = frozenset(orbit)
                if not is_forest(candidate.graph, forest) or len(forest) not in (1, p):
                    continue
                if equivariant_isomorphic(equivariant_collapse(candidate, forest), zg):
                    pairs.append((candidate, forest))
    return _dedup_expansion_pairs(pairs)


@pytest.fixture(scope="module")
def oracle_cases():
    """The p = 3 rank-3 census, the p = 3 rank-4 classes with at most 7
    edges (some of their blow-ups leave exactly two darts on the side of
    the first dart orbit), the p = 3 wedge and the p = 5 reduced classes
    with at most two vertices, each with its edge budget."""
    cases = [(zg, 6) for zg in enumerate_zp_graphs(3, 3, 6)]
    cases.extend((zg, 9) for zg in enumerate_zp_graphs(3, 4, 7))
    cases.append((wedge(3, "diag"), 9))
    cases.extend((zg, 21) for zg in classify_reduced(5) if zg.graph.vertex_count <= 2)
    assert len(cases) == 24
    return cases


def test_expansions_match_search_oracle(oracle_cases):
    """The construction and the stratum search find the same blow-ups.

    The p = 5 wedge is left out of the inputs only because the search
    takes about 14 s on it; acceptance criterion 10 and the CLI test
    test_equiv_expand_p5_wedge pin its answer, one blow-up to K_{p,3}
    along a star forest, as test_expansion_round_trip_p3 does for p = 3.
    The p = 7 reduced classes are left out for the same reason: the
    search takes 4 to 5 s on each two-vertex class and 220 s on the
    wedge, and the rose, searched in 0.1 s, has 27 blow-ups, whose pairs
    add about 50 s to the key test below.
    """
    for zg, budget in oracle_cases:
        built = equivariant_expansions(zg, budget)
        searched = search_expansions(zg, budget)
        assert len(built) == len(searched)
        for pairs, others in ((built, searched), (searched, built)):
            for cand, forest in pairs:
                matches = [o for o in others if pairs_equivalent(cand, forest, *o)]
                assert len(matches) == 1


@pytest.fixture(scope="module")
def property_sources():
    return [(zg, 21) for zg in classify_reduced(5)] + [(zg, 6) for zg in enumerate_zp_graphs(3, 3, 6)]


def _relabel(zg, vperm, hperm):
    f = GraphAutomorphism(tuple(vperm), tuple(hperm))
    action = compose(compose(f, zg.action), inverse(f))
    return ZpGraph(apply_to_graph(zg.graph, f), action, zg.p)


@settings(max_examples=40)
@given(st.data())
def test_expansions_invert_collapse_and_ignore_labels(property_sources, data):
    zg, budget = data.draw(st.sampled_from(property_sources))
    relabeled = _relabel(
        zg,
        data.draw(st.permutations(range(zg.graph.vertex_count))),
        data.draw(st.permutations(range(zg.graph.half_edge_count))),
    )
    pairs = equivariant_expansions(relabeled, budget)
    assert len(pairs) == len(equivariant_expansions(zg, budget))
    for cand, forest in pairs:
        assert forest in {frozenset(o) for o in cand.edge_orbits()}
        assert is_forest(cand.graph, forest)
        assert equivariant_isomorphic(equivariant_collapse(cand, forest), relabeled)


@pytest.fixture(scope="module")
def collapse_sources():
    """(graph-with-symmetry, nonempty invariant forest) pairs for p = 3 and 5."""
    pairs = [(zg, f) for zg in enumerate_zp_graphs(3, 4, 7) for f in invariant_forests(zg) if f]
    return pairs + [pair for zg in classify_reduced(5) for pair in equivariant_expansions(zg, 21)]


@settings(max_examples=60)
@given(st.data())
def test_equivariant_collapse_commutes_with_relabeling(collapse_sources, data):
    zg, forest = data.draw(st.sampled_from(collapse_sources))
    vperm = data.draw(st.permutations(range(zg.graph.vertex_count)))
    hperm = data.draw(st.permutations(range(zg.graph.half_edge_count)))
    relabeled = _relabel(zg, vperm, hperm)
    moved = {relabeled.graph.dart_edge[hperm[zg.graph.edges[e][0]]] for e in forest}
    assert equivariant_isomorphic(
        equivariant_collapse(relabeled, moved), equivariant_collapse(zg, forest)
    )


def test_expansion_trivial_action():
    g = catalog.rose(3)
    zg = ZpGraph(g, GraphAutomorphism((0,), tuple(range(6))), 3)
    assert zg.trivial
    assert equivariant_expansions(zg, 6) == []


def test_json_round_trip():
    zg = wedge(3, "diag")
    back = ZpGraph.from_json(zg.to_json())
    assert back.graph == zg.graph and back.action == zg.action and back.p == 3


# ---------------------------------------------------------------------------
# the equivariant key against the pairwise oracles


@pytest.fixture(scope="module")
def p3_rank4_candidates():
    """Every admissible rank-4 quotient-data candidate with an order-3
    action, before deduplication."""
    out = sweep_candidates(3, 4, 9)
    assert len(out) == 69
    return out


def test_key_matches_oracle_on_p3_rank4_candidates(p3_rank4_candidates):
    candidates = p3_rank4_candidates
    buckets = {}
    for zg in candidates:
        buckets.setdefault(_census_order(zg), []).append(zg)
    pairs = [(x, y) for b in buckets.values() for i, x in enumerate(b) for y in b[:i]]
    assert len(pairs) == 203
    assert all((x.key == y.key) == equivariant_isomorphic(x, y) for x, y in pairs)
    # keys in different buckets differ
    keys = {zg.key for zg in candidates}
    assert len(keys) == sum(len({zg.key for zg in b}) for b in buckets.values()) == 19


def test_closure_matches_the_p3_rank4_candidates(p3_rank4_candidates):
    want = [zg.key for zg in dedup_equivariant(p3_rank4_candidates)]
    assert [zg.key for zg in enumerate_zp_graphs(3, 4, 9)] == want
    assert len(want) == 19


def wheel(p):
    """The wheel with p spokes, rotated: the rotation is conjugate to its
    inverse and to no other generator of its group, so only the minimum
    over the generators makes the key ignore the choice of generator."""
    return realize_quotient_data(p, 1, 1, [("star", 0, 0), ("chord", 0, 1)])


def test_key_matches_oracle_on_p5_classes_and_wheel():
    """Each reduced class and the wheel, its action squared and a
    relabeling of it: the keys of the 18 agree exactly where the oracle
    finds an isomorphism."""
    rng = random.Random(5)
    items = []
    for zg in classify_reduced(5) + [wheel(5)]:
        vperm = list(range(zg.graph.vertex_count))
        hperm = list(range(zg.graph.half_edge_count))
        rng.shuffle(vperm)
        rng.shuffle(hperm)
        items += [zg, ZpGraph(zg.graph, power(zg.action, 2), 5), _relabel(zg, vperm, hperm)]
    pairs = [(x, y) for i, x in enumerate(items) for y in items[:i]]
    assert all((x.key == y.key) == equivariant_isomorphic(x, y) for x, y in pairs)
    assert len({zg.key for zg in items}) == 6


def test_pair_key_matches_oracle_on_raw_blow_ups(oracle_cases, monkeypatch):
    """Every pair of raw blow-up candidates of one source: pairs on
    non-isomorphic graphs or forests of different sizes have different
    keys, and the others have equal keys exactly when the oracle finds an
    equivariant isomorphism carrying one forest onto the other."""
    raw = []
    monkeypatch.setattr(equivariant, "_dedup_expansion_pairs", lambda pairs: raw.append(pairs) or [])
    for zg, budget in oracle_cases:
        equivariant_expansions(zg, budget)
    monkeypatch.undo()
    compared = 0
    for pairs in raw:
        keyed = [
            ((canonical_form(zg.graph), len(forest)), _equivariant_key(zg, forest, {}), zg, forest)
            for zg, forest in pairs
        ]
        for i, (bucket, key, zg, forest) in enumerate(keyed):
            for obucket, okey, ozg, oforest in keyed[:i]:
                if bucket != obucket:
                    assert key != okey
                else:
                    compared += 1
                    assert (key == okey) == pairs_equivalent(zg, forest, ozg, oforest)
    assert compared > 0


def test_pair_key_matches_oracle_on_invariant_forests(collapse_sources):
    """Pairs of invariant forests of one graph-with-symmetry."""
    by_class = {}
    for zg, forest in collapse_sources:
        by_class.setdefault(zg.key, []).append((zg, forest))
    pairs = [(x, y) for group in by_class.values() for i, x in enumerate(group) for y in group[:i]]
    agree = [
        (_equivariant_key(*x, {}) == _equivariant_key(*y, {})) == pairs_equivalent(*x, *y)
        for x, y in pairs
    ]
    assert all(agree) and len(agree) > 100


@settings(max_examples=60)
@given(st.data())
def test_key_ignores_labels_and_generator(
    property_sources, p3_rank4_candidates, collapse_sources, data
):
    others = [zg for zg, _ in property_sources] + p3_rank4_candidates
    zg = data.draw(st.one_of(st.sampled_from([wheel(5), wheel(7)]), st.sampled_from(others)))
    vperm = data.draw(st.permutations(range(zg.graph.vertex_count)))
    hperm = data.draw(st.permutations(range(zg.graph.half_edge_count)))
    relabeled = _relabel(zg, vperm, hperm)
    for k in range(1, zg.p):
        assert ZpGraph(relabeled.graph, power(relabeled.action, k), zg.p).key == zg.key

    zg, forest = data.draw(st.sampled_from(collapse_sources))
    vperm = data.draw(st.permutations(range(zg.graph.vertex_count)))
    hperm = data.draw(st.permutations(range(zg.graph.half_edge_count)))
    relabeled = _relabel(zg, vperm, hperm)
    moved = frozenset(relabeled.graph.dart_edge[hperm[zg.graph.edges[e][0]]] for e in forest)
    assert _equivariant_key(relabeled, moved, {}) == _equivariant_key(zg, forest, {})


def _closure_oracle(zg):
    """The closure loop that reduces and keys every move, duplicates included."""
    start = reduce_zp(zg)
    classes = {start.key: start}
    queue = [start]
    while queue:
        current = queue.pop(0)
        for move in nielsen_moves(current):
            candidate = reduce_zp(move.result)
            if candidate.key not in classes:
                classes[candidate.key] = candidate
                queue.append(candidate)
    return list(classes.values())


@pytest.mark.parametrize("q", [5, 7, 11])
def test_nielsen_closure_matches_every_move_oracle(q):
    for zg in classify_reduced(q):
        got = sorted(z.key for z in nielsen_closure(zg))
        assert got == sorted(z.key for z in _closure_oracle(zg))


@pytest.mark.parametrize("q,distinct", [(5, 6), (7, 7), (11, 9)])
def test_nielsen_closure_reduces_each_distinct_moved_graph_once(monkeypatch, q, distinct):
    classes = classify_reduced(q)
    reduced, built = [], []
    real = equivariant.reduce_zp
    monkeypatch.setattr(equivariant, "reduce_zp", lambda zg: reduced.append(zg) or real(zg))
    graph = equivariant.HalfEdgeGraph
    monkeypatch.setattr(equivariant, "HalfEdgeGraph", lambda *args: built.append(args) or graph(*args))
    for zg in classes:
        nielsen_closure(zg)
    # one call reduces each start; every closure is a singleton, so the
    # rest reduce moved graphs, and only those are built
    assert len(reduced) - len(classes) == distinct
    assert len(built) == distinct


def test_nielsen_closure_cap_reports_progress():
    zg = ZpGraph(*catalog.rose_rotation(5, 8), 5)
    assert len(nielsen_moves(zg)) == 84
    with pytest.raises(BudgetExceeded) as err:
        nielsen_closure(zg, step_cap=3)
    assert str(err.value) == (
        "nielsen closure hit its step cap of 3 moves; moves taken: 3, classes found so far: 1"
    )
