"""Census and quotient-complex structure against independent oracles."""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from spinelab import catalog, spine
from spinelab.fixtures import load_expected_tables
from spinelab.report import corpus_document
from spinelab.graphs import (
    HalfEdgeGraph,
    build_graph,
    enumerate_forests,
    is_admissible,
    rank,
    two_edge_connected,
)
from spinelab.spine import (
    NameAmbiguityError,
    cell_rows,
    census_tables,
    corpus_tables,
    match_names,
    quotient_complex,
    reduced_homology,
    singular_graphs,
    verify_expected_tables,
)
from spinelab.symmetry import (
    _vertex_group,
    automorphism_order,
    bundle_names,
    canonical_form,
    edge_permutation,
    realize_multiplicity,
)

from census_oracle import _candidates, every_vertex_census, singular_by_filter
from dart_oracle import (
    automorphism_group,
    chain_key,
    every_forest_cells_for_class,
    oracle_cells_for_class,
    oracle_quotient_complex,
    total_loops,
    whole_group_rep,
)


def oracle_admissible_classes(target_rank, max_vertices, max_edges):
    """Brute force over all attachment maps, deduplicated by canonical form."""
    classes = {}
    for e in range(1, max_edges + 1):
        sigma = []
        for i in range(e):
            sigma += [2 * i + 1, 2 * i]
        for v in range(1, max_vertices + 1):
            for targets in itertools.product(range(v), repeat=2 * e):
                if len(set(targets)) != v:
                    continue
                g = HalfEdgeGraph(v, tuple(sigma), targets)
                if rank(g) == target_rank and is_admissible(g):
                    classes[canonical_form(g)] = g
    return classes


def test_rank2_census_matches_oracle():
    oracle = oracle_admissible_classes(2, max_vertices=2, max_edges=3)
    got = every_vertex_census(2)
    assert len(got) == len(oracle) == 2
    assert {canonical_form(g) for g in got} == set(oracle)
    forms = {canonical_form(g) for g in got}
    assert canonical_form(catalog.rose(2)) in forms
    assert canonical_form(catalog.multi_edge(3)) in forms


def test_rank4_census_size_regression():
    # regression value recorded from the enumerator; the 17 singular
    # classes inside it are checked row by row elsewhere
    assert len(every_vertex_census(4)) == 43


def test_rank3_census_size_regression():
    assert len(every_vertex_census(3)) == 8


def realize_everything_census(n):
    """Oracle: the census before matrix screening.  Every candidate is
    realized and tested with ``is_admissible``; each new class is realized
    from the bytes of its canonical form, not from the rows the form
    carries."""
    seen = {}
    for _, loops, lower in _candidates(n):
        g = realize_multiplicity(loops, lower)
        if is_admissible(g):
            form = canonical_form(g)
            if form not in seen:
                _, rows = json.loads(form.data)
                seen[form] = realize_multiplicity([r[0] for r in rows], [r[1:] for r in rows])
    order = sorted(seen, key=lambda f: (seen[f].edge_count, seen[f].vertex_count, f.data))
    return [seen[f] for f in order]


def test_matrix_screen_matches_realized_admissibility():
    verdicts = [
        two_edge_connected(lower) == is_admissible(realize_multiplicity(loops, lower))
        for n in (2, 3, 4)
        for _, loops, lower in _candidates(n)
    ]
    assert len(verdicts) == 5510
    assert all(verdicts)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_census_matches_realize_everything_oracle(n):
    assert every_vertex_census(n) == realize_everything_census(n)


@pytest.mark.parametrize(
    "n, total",
    [
        (2, Fraction(-1, 24)),
        (3, Fraction(-1, 48)),
        (4, Fraction(-161, 5760)),
        (5, Fraction(-367, 5760)),
    ],
)
def test_census_meets_the_smillie_vogtmann_sum(n, total):
    # chi(Out F_n) as a sum over the census of (-1)^|F| / |Aut G| over the
    # forests F of each class G, the empty forest included; no class's
    # term is 0, so dropping any class changes the sum
    terms = [
        Fraction(sum((-1) ** len(f) for f in enumerate_forests(g)), automorphism_order(g))
        for g in every_vertex_census(n)
    ]
    assert 0 not in terms
    assert sum(terms) == total


# chi(Out F_n): the Smillie-Vogtmann census sums above through n = 5,
# the rank-6 census sum, and at n = 7 the value of the generating series
# (ROADMAP item 2); chi_out(n) replaces these values when that lands
CHI_OUT = {
    2: Fraction(-1, 24),
    3: Fraction(-1, 48),
    4: Fraction(-161, 5760),
    5: Fraction(-367, 5760),
    6: Fraction(-120257, 580608),
    7: Fraction(-39793, 45360),
}


def _p_adic_valuation(k, p):
    return next(v for v in itertools.count() if k % p ** (v + 1))


@pytest.mark.parametrize(
    "p, n, total, difference",
    [
        (3, 2, Fraction(1, 12), Fraction(1, 8)),
        (3, 3, Fraction(-1, 12), Fraction(-1, 16)),
        (3, 4, Fraction(-1961, 5760), Fraction(-5, 16)),
        (5, 4, Fraction(1, 240), Fraction(37, 1152)),
        (5, 5, Fraction(11, 11520), Fraction(149, 2304)),
        (7, 6, Fraction(1, 10080), Fraction(85939, 414720)),
        (7, 7, Fraction(1, 71680), Fraction(145531, 165888)),
        (5, 7, Fraction(3457, 1935360), Fraction(145825, 165888)),
    ],
)
def test_quotient_complex_meets_browns_congruence(p, n, total, difference, rank4_complex):
    # Brown (Invent. Math. 27, 1974): the sum over the cells of the
    # quotient complex of (-1)^dim / isotropy order differs from
    # chi(Out F_n) by a rational whose denominator is prime to p
    cells = rank4_complex.cells if (p, n) == (3, 4) else quotient_complex(p, n).cells
    terms = [Fraction((-1) ** c.dim, c.isotropy_order) for c in cells]
    assert sum(terms) == total
    assert sum(terms) - CHI_OUT[n] == difference
    assert difference.denominator % p
    # the congruence bites: multiplying by p the isotropy order with the
    # largest p-part leaves a term the other terms cannot cancel mod p
    worst = max(range(len(cells)), key=lambda i: _p_adic_valuation(cells[i].isotropy_order, p))
    terms[worst] /= p
    assert (sum(terms) - CHI_OUT[n]).denominator % p == 0


# sha256 of the corpus document of each (p, rank), as recorded when the
# benchmark was defined; the corpus must stay byte-identical
CORPUS_SHA256 = {
    (3, 4): "690a44d13a2eded7fb2b2491c94fd79607a61900bbe08a09d1b117fe10f29376",
    (5, 4): "e5f9de762ccb9dd7e296d0f19c8eb1306ef0e0ffeab6fc96234343a3ad78fc02",
    (3, 3): "7dce6aa951fb17a5471688fa1ee4c901ad0d961f26cd5e231e2b7a6e57502c88",
}


@pytest.mark.parametrize("p, n", sorted(CORPUS_SHA256))
def test_corpus_bytes_are_pinned(p, n):
    doc = corpus_document(quotient_complex(p, n))
    assert hashlib.sha256(doc.encode()).hexdigest() == CORPUS_SHA256[(p, n)]


def test_census_17_singular_classes(rank4_classes):
    assert len(rank4_classes) == 17
    orders = sorted(c.aut_order for c in rank4_classes)
    assert orders == sorted(
        [384, 240, 48, 48, 48, 72, 24, 24, 12, 48, 48, 24, 24, 12, 72, 48, 12]
    )


def test_census_contains_all_named_graphs(rank4_classes):
    forms = {canonical_form(c.graph): c.name for c in rank4_classes}
    for name, make in catalog.RANK4_SINGULAR.items():
        assert forms[canonical_form(make())] == name


def test_no_eight_edge_singular_graph(rank4_classes):
    assert all(c.graph.edge_count != 8 for c in rank4_classes)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_singular_graphs_match_the_filtered_full_census(n):
    # the classes read off the order-p closure against the full census
    # filtered by group order, one census for every prime
    census = every_vertex_census(n)
    for p in (3, 5, 7, 11):
        got = singular_graphs(p, n)
        want = singular_by_filter(p, census)
        assert [c.graph for c in got] == [c.graph for c in want], (p, n)
        assert [c.aut_order for c in got] == [c.aut_order for c in want], (p, n)
        assert [sorted(c.vertex_group) for c in got] == [sorted(c.vertex_group) for c in want]


@pytest.mark.parametrize("p, n", [(4, 3), (2, 3), (9, 4)])
def test_singular_graphs_need_an_odd_prime(p, n):
    with pytest.raises(ValueError, match="odd prime"):
        singular_graphs(p, n)
    with pytest.raises(ValueError, match="odd prime"):
        quotient_complex(p, n)


def test_singular_graphs_enumerates_vertex_automorphisms_once_per_class(monkeypatch):
    # each class's vertex automorphisms come from the canonical search that
    # found it, so nothing is searched beyond the order-3 census, which
    # searches through its own module's import of the search: count both,
    # 38 key searches and 19 forms
    from spinelab import equivariant, symmetry

    searches = []
    inner = symmetry._min_matrix_data

    def counted(*a):
        searches.append(a)
        return inner(*a)

    monkeypatch.setattr(symmetry, "_min_matrix_data", counted)
    monkeypatch.setattr(equivariant, "_min_matrix_data", counted)
    classes = singular_graphs(3, 4)
    assert len(searches) == 57
    monkeypatch.undo()
    assert len(classes) == 17
    for cls in classes:
        g = cls.graph
        fresh = HalfEdgeGraph(g.vertex_count, g.sigma, g.target)  # searched anew
        assert sorted(cls.vertex_group) == sorted(_vertex_group(fresh))
        assert cls.aut_order == automorphism_order(fresh)


@pytest.mark.parametrize("n, pairs", [(3, 6), (4, 38)])
def test_census_searches_each_key_matrix_once(monkeypatch, n, pairs):
    """Blow-up candidates built apart can share a key matrix: at (3, 4)
    the census's keys read 56 (matrix, keys) pairs, 38 of them distinct,
    and 8 with 6 distinct at (3, 3).  Each census searches a pair once,
    from a table of its own, so a second census searches them again."""
    from spinelab import equivariant

    searches = []
    inner = equivariant._min_matrix_data
    monkeypatch.setattr(equivariant, "_min_matrix_data", lambda *a: searches.append(a) or inner(*a))
    singular_graphs(3, n)
    assert len(searches) == len(set(searches)) == pairs
    singular_graphs(3, n)
    assert len(searches) == 2 * pairs


@pytest.mark.parametrize("q, pairs", [(3, 6), (5, 12), (7, 18)])
def test_expansions_search_each_key_matrix_once(monkeypatch, q, pairs):
    """The keys of one ``equivariant_expansions`` call share a table, so
    the expansions criterion at q searches each (matrix, keys) pair once:
    6, 12 and 18 at q = 3, 5 and 7, where a table per key read 10, 28
    and 54."""
    from spinelab import equivariant
    from spinelab.verification import criterion_expansions

    searches = []
    inner = equivariant._min_matrix_data
    monkeypatch.setattr(equivariant, "_min_matrix_data", lambda *a: searches.append(a) or inner(*a))
    assert criterion_expansions((q,)).passed
    assert len(searches) == len(set(searches)) == pairs


def test_classes_keep_vertex_groups_not_dart_groups():
    # the 17 classes at (3, 4) keep 125 vertex automorphisms; their dart
    # groups, which the complex never lists, have 1,188 elements
    classes = quotient_complex(3, 4).classes
    assert sum(len(cls.vertex_group) for cls in classes) == 125
    assert sum(cls.aut_order for cls in classes) == 1188


def test_rank5_prime5_is_empty_for_rank2():
    assert not singular_graphs(5, 2)


def test_match_names_examples(rank4_classes):
    by_name = {c.name: c for c in rank4_classes}
    rose = by_name["R4"]
    assert (rose.graph.vertex_count, rose.graph.edge_count, rose.aut_order) == (1, 4, 384)
    p1 = by_name["P1"]
    assert (p1.graph.vertex_count, p1.graph.edge_count, p1.aut_order) == (6, 9, 12)
    t1 = by_name["T1"]
    assert (t1.graph.vertex_count, t1.graph.edge_count, total_loops(t1.graph)) == (3, 6, 0)


def test_match_names_flags_unknown():
    with pytest.raises(NameAmbiguityError):
        match_names(singular_graphs(5, 2) + singular_graphs(3, 2))


def _counted_searches(monkeypatch) -> list:
    from spinelab import symmetry

    searches = []
    inner = symmetry._min_matrix_data
    monkeypatch.setattr(symmetry, "_min_matrix_data", lambda *a: searches.append(a) or inner(*a))
    return searches


@pytest.mark.parametrize("relabel", [False, True])
def test_match_names_refuses_a_second_construction_of_a_class(rank4_classes, monkeypatch, relabel):
    # a copy in the class representative's own labelling takes the class's
    # form from the call's table of class matrices; a relabelled copy is
    # searched; either way the catalog then names one class twice
    g = next(c.graph for c in rank4_classes if c.name == "Theta3*R1")
    n = g.vertex_count
    ends = [g.edge_endpoints(e) for e in range(g.edge_count)]
    if relabel:
        ends = [(n - 1 - u, n - 1 - v) for u, v in ends]
    copy = build_graph(n, ends)
    assert (copy.multiplicity == g.multiplicity) != relabel
    monkeypatch.setattr(catalog, "RANK4_SINGULAR", {**catalog.RANK4_SINGULAR, "copy": lambda: copy})
    searches = _counted_searches(monkeypatch)
    with pytest.raises(NameAmbiguityError, match=r"Theta3\*R1 and copy share a form"):
        match_names(rank4_classes)
    assert len(searches) == 8 + relabel


def test_match_names_refuses_a_class_given_twice(rank4_classes):
    with pytest.raises(NameAmbiguityError, match="received the same name"):
        match_names(rank4_classes + rank4_classes[:1])


def test_names_and_faces_search_each_matrix_once_per_call(monkeypatch):
    classes = singular_graphs(3, 4)
    searches = _counted_searches(monkeypatch)
    named = match_names(classes)
    # the classes carry their forms, and 9 of the 17 catalog constructions
    # have a class representative's own matrix, so 8 are searched
    assert len(searches) == 8
    quotient_complex(3, 4, named)
    # the 24 collapses by a top class's smallest forest have 11 matrices
    assert len(searches) == 8 + 11
    assert len({matrix for matrix, _ in searches[8:]}) == 11


def test_complex_encodes_only_the_bytes_of_sorted_forms(monkeypatch, form_encodes):
    # forms compare by their rows; only the order-3 census, sorted by the
    # bytes of its graphs' forms, reads them, once per graph
    from spinelab import equivariant

    sorted_graphs = []
    inner = equivariant._census_order
    monkeypatch.setattr(
        equivariant, "_census_order", lambda zg: sorted_graphs.append(zg.graph) or inner(zg)
    )
    quotient_complex(3, 4)
    assert len({id(g) for g in sorted_graphs}) == len(form_encodes) == 19


def test_cell_counts(rank4_complex):
    assert [len(rank4_complex.cells_of_dim(d)) for d in range(4)] == [17, 24, 13, 3]
    assert not rank4_complex.cells_of_dim(4)
    assert all(c.dim <= 2 * 4 - 3 for c in rank4_complex.cells)


def test_one_cells_match_expected_rows(rank4_complex):
    expected = load_expected_tables()
    want = sorted((tuple(r["cell"]), r["isotropy_order"]) for r in expected["one_cells"])
    assert sorted(cell_rows(rank4_complex, 1)) == want


def test_all_tables(rank4_complex):
    assert verify_expected_tables(rank4_complex, load_expected_tables()) == []


def test_corpus_reads_back_to_the_complex_tables(rank4_complex):
    data = json.loads(corpus_document(rank4_complex))
    assert corpus_tables(data) == census_tables(rank4_complex)


def test_corpus_reads_back_with_one_search_per_top_and_forest(rank4_complex, monkeypatch):
    from spinelab import symmetry

    data = json.loads(corpus_document(rank4_complex))
    stored = [c for c in data["cells"] if c["dim"] in (1, 2, 3)]
    pairs = {(c["top_name"], tuple(f)) for c in stored for f in c["forests"]}
    searches = []
    inner = symmetry._min_matrix_data
    monkeypatch.setattr(symmetry, "_min_matrix_data", lambda *a: searches.append(a) or inner(*a))
    corpus_tables(data)
    # 17 class forms and one collapse for each of the 24 distinct pairs,
    # where one search per stored forest made 76
    assert len(pairs) == 24
    assert len(searches) == 17 + 24


def test_three_cell_isotropies(rank4_complex):
    assert [c.isotropy_order for c in rank4_complex.cells_of_dim(3)] == [6, 6, 6]


def test_duplicated_edge_pair(rank4_complex):
    dup = [
        c
        for c in rank4_complex.cells_of_dim(1)
        if set(rank4_complex.cell_vertex_names(c)) == {"Theta2:Theta1", "Theta2^{0,2}"}
    ]
    assert len(dup) == 2
    assert sorted(c.isotropy_order for c in dup) == [6, 24]
    assert dup[0].chain != dup[1].chain


def test_one_cell_endpoints_are_collapses(rank4_complex):
    # every vertex of every cell, against the collapse by its forest
    # matched to a census class by canonical form; the top comes last
    from spinelab.graphs import collapse

    for cx in (rank4_complex, quotient_complex(5, 4), quotient_complex(3, 3)):
        class_of = {canonical_form(c.graph): i for i, c in enumerate(cx.classes)}
        for cell in cx.cells:
            top = cx.classes[cell.graph_index].graph
            want = [class_of[canonical_form(collapse(top, f))] for f in cell.chain]
            assert list(cell.vertices) == [*want, cell.graph_index]


def test_rerooted_collapses_once_per_class_and_smallest_forest(monkeypatch):
    calls = []
    inner = spine.collapse_with_maps
    monkeypatch.setattr(spine, "collapse_with_maps", lambda *a: calls.append(a) or inner(*a))
    cx = quotient_complex(3, 4)
    positive = [c for c in cx.cells if c.dim]
    assert len(positive) == 40
    assert len({(c.graph_index, c.chain[-1]) for c in positive}) == len(calls) == 24


def test_vertex_names_need_no_canonical_search(rank4_complex, monkeypatch):
    from spinelab import symmetry

    searches = []
    inner = symmetry._min_matrix_data
    monkeypatch.setattr(symmetry, "_min_matrix_data", lambda *a: searches.append(a) or inner(*a))
    # canonical_form runs this search, so no call to it goes uncounted
    tables = census_tables(rank4_complex)
    names = [rank4_complex.cell_vertex_names(c) for c in rank4_complex.cells]
    assert [len(tables[key]) for key, _ in spine.CELL_TABLES] == [24, 13, 3]
    assert all(isinstance(name, str) for row in names for name in row)
    assert searches == []


def test_components(rank4_complex):
    assert rank4_complex.component_count == 3
    assert sorted(rank4_complex.component_vertex_counts()) == [1, 7, 9]


def test_rose_component_is_acyclic(rank4_complex):
    comp = rank4_complex.component_containing("R4")
    cells = [c.index for c in rank4_complex.cells if rank4_complex.component_of[c.index] == comp]
    assert reduced_homology(rank4_complex, cells) == [0, 0, 0, 0]


def test_isotropy_subgroup_membership(rank4_complex):
    # each cell's vertex stabilizer is the image in the vertex group of
    # the dart-level stabilizer that the oracle finds by a whole-group scan
    for cls in rank4_complex.classes:
        group = set(cls.vertex_group)
        theirs = oracle_cells_for_class(3, cls.graph)
        for level, cells in spine._cells_for_class(3, cls).items():
            for key, (_, order, stab, _) in cells.items():
                assert set(stab) <= group and len(set(stab)) == len(stab)
                assert set(stab) == {a.vperm for a in theirs[level][key][1]}
                assert order % 3 == 0


def test_face_of_face_identity(rank4_complex):
    """Omitting vertices i < j in either order lands in the same cell."""
    cx = rank4_complex
    cells = {c.index: c for c in cx.cells}
    for cell in cx.cells:
        if cell.dim < 2:
            continue
        k = cell.dim
        for j in range(k + 1):
            for i in range(j):
                first = cells[cell.faces[j]]
                via_j = first.faces[i]
                second = cells[cell.faces[i]]
                via_i = second.faces[j - 1]
                assert via_j == via_i


def comparable(cell):
    """A cell of ``_cells_for_class`` with its stabilizer as a set."""
    chain, order, stab, translates = cell
    return chain, order, frozenset(stab), translates


def as_bundle_cell(graph, cell):
    """An oracle cell in the terms of ``_cells_for_class``: its isotropy
    order, the vertex maps of its stabilizer, and its translate keys with
    each bundle named by its least edge."""
    names = bundle_names(graph)
    chain, stab, translates = cell
    keys = frozenset(chain_key([names[e] for e in f] for f in key) for key in translates)
    return chain, len(stab), frozenset(a.vperm for a in stab), keys


@pytest.mark.parametrize("p, n", sorted(CORPUS_SHA256))
def test_cells_match_whole_group_oracle(p, n):
    # level by level and cell by cell, then the whole complex: chains,
    # isotropy orders, faces and vertices
    got = quotient_complex(p, n)
    for cls in got.classes:
        g = cls.graph
        mine, theirs = spine._cells_for_class(p, cls), oracle_cells_for_class(p, g)
        assert [[(k, comparable(c)) for k, c in level.items()] for level in mine.values()] == [
            [(k, as_bundle_cell(g, c)) for k, c in level.items()] for level in theirs.values()
        ]
    assert len(got.cells) > 0
    assert got.cells == oracle_quotient_complex(p, got.classes)


@pytest.mark.parametrize("p, n, scanned", [(3, 4, 337), (5, 4, 0), (3, 3, 38)])
def test_cells_scan_vertex_stabilizers(p, n, scanned, monkeypatch):
    # the stabilizer elements scanned, one scan per orbit.  Only forests
    # that p can make singular are scanned, so none at (5, 4), where the
    # one forest of the five-fold theta graph has isotropy order 48.
    # Scanning every forest read 1,889 at (3, 4), 135 at (3, 3) and 2 at
    # (5, 4); the dart-level scan of its orbits read 4,284 at (3, 4) and
    # 240 at (5, 4)
    seen = []
    inner = spine._orbit
    monkeypatch.setattr(spine, "_orbit", lambda *a: seen.append(len(a[0])) or inner(*a))
    quotient_complex(p, n)
    assert sum(seen) == scanned


@pytest.mark.parametrize(
    "p, n", [(3, 2), (3, 3), (3, 4), (5, 4), (3, 5), (5, 5), (5, 6), (7, 6), (7, 7), (5, 7)]
)
def test_cells_match_the_every_forest_scan(p, n):
    # the forests an order-p element fixes, and those the dart freedom
    # makes singular, against every forest: the same cells, level by
    # level, in the same key order, so each orbit keeps its representative
    for cls in singular_graphs(p, n):
        mine, theirs = spine._cells_for_class(p, cls), every_forest_cells_for_class(p, cls)
        assert [list(level.items()) for level in mine.values()] == [
            list(level.items()) for level in theirs.values()
        ]


@pytest.mark.parametrize("p, n, listed", [(3, 4, 85), (7, 8, 108)])
def test_cells_list_only_singular_forest_candidates(p, n, listed, monkeypatch):
    # forests produced by the listers, the empty ones included: every
    # forest of every class was 817 at (3, 4) and about 5.4 million at
    # (7, 8), where four trivalent classes held over a million each
    counts = []
    for name in ("_acyclic_unions", "enumerate_forests"):

        def counted(*a, inner=getattr(spine, name)):
            out = inner(*a)
            counts.append(len(out))
            return out

        monkeypatch.setattr(spine, name, counted)
    quotient_complex(p, n)
    assert sum(counts) == listed


def test_two_forest_cells_are_whole_group_minimal():
    """K_{5,3} at p = 3: a proper subset of a forest can come before a
    smaller-keyed translate in subset-mask order, so each orbit's
    representative must be found in key order."""
    g, _ = catalog.bipartite_block_rotation(5)
    cls = spine.GraphClass(g, automorphism_order(g), tuple(_vertex_group(g)))
    elements = automorphism_group(g)
    eperms = [edge_permutation(g, a) for a in elements]
    cells = spine._cells_for_class(3, cls)
    assert [len(level) for level in cells.values()] == [1, 30, 243, 730, 876, 360]
    for cell in cells[2].values():
        theirs = whole_group_rep(elements, eperms, cell[0])
        assert as_bundle_cell(g, theirs) == comparable(cell)
