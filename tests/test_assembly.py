"""Page assembly, component cohomology and the recursion pipeline."""

import re
from dataclasses import replace

import pytest

import linalg_oracle as oracle
import page_oracle
from spinelab import linalg
from spinelab.algebra import (
    AlgebraMorphism,
    Element,
    GradedAlgebra,
    dimensions,
    equalizer,
    swap_action,
)
from spinelab.assembly import (
    _recursion_maps,
    CoefficientRule,
    CoefficientRuleError,
    ConcentrationError,
    build_e1,
    check_d_squared,
    component_cohomology,
    constant_rule,
    corollary_dims,
    equivariant_cohomology_from_page,
    page_cohomology,
    page_ranks,
    sylow_rule,
    theorem_pipeline,
)
from spinelab.fixtures import load_algebra, load_morphisms, load_thm_input
from spinelab.series import PowerSeriesRat
from spinelab.verification import _alpha_beta

BOUND = 24
# a recursion input with a nonzero restriction kernel (e15)
SYNTHETIC = GradedAlgebra(5, [("u7", 7, "ext"), ("c8", 8, "poly"), ("e15", 15, "ext")])


@pytest.fixture(scope="module")
def sigma3_dims():
    return dimensions(load_algebra("sigma3"), BOUND).dims


def component_cells(cx, anchor):
    component = cx.component_containing(anchor)
    return [c.index for c in cx.cells if cx.component_of[c.index] == component]


def all_cells(cx):
    return range(len(cx.cells))


def test_rose_page_shape(rank4_complex):
    rule = sylow_rule(rank4_complex, BOUND)
    page = build_e1(rank4_complex, rule, component_cells(rank4_complex, "R4"))
    assert {s: len(v) for s, v in page.cells_by_dim.items()} == {0: 7, 1: 13, 2: 10, 3: 3}


def test_single_point_component(rank4_complex, sigma3_dims):
    rule = sylow_rule(rank4_complex, BOUND)
    page = build_e1(rank4_complex, rule, component_cells(rank4_complex, "Theta2^{1,1}"))
    assert {s: len(v) for s, v in page.cells_by_dim.items()} == {0: 1}
    assert equivariant_cohomology_from_page(page).dims == sigma3_dims


def test_d_squared_zero_full_complex(rank4_complex):
    rule = constant_rule(rank4_complex, BOUND, load_algebra("sigma3"))
    page = build_e1(rank4_complex, rule, all_cells(rank4_complex))
    assert check_d_squared(page)


def flip_a_face_sign(page):
    d0, d1 = page.incidences[0], page.incidences[1]
    # negating d1[r][c] adds -2 d1[r][c] d0[c] to row r of d1 d0, which is
    # nonzero when both are
    p = page.p
    r, c = next(
        (r, c) for r, row in d1.items() for c, v in row.items() if v % p and any(w % p for w in d0[c].values())
    )
    d1[r][c] = -d1[r][c]


def test_check_d_squared_catches_a_flipped_face_sign(rank4_complex):
    rule = constant_rule(rank4_complex, 0, load_algebra("sigma3"))
    page = build_e1(rank4_complex, rule, all_cells(rank4_complex))
    assert check_d_squared(page)
    flip_a_face_sign(page)
    assert not check_d_squared(page)


def test_d_squared_counts_only_cells_with_coefficients(rank4_complex):
    """A flipped sign among cells whose dims are zero in every degree
    leaves every degree's composite zero."""
    rule = constant_rule(rank4_complex, 0, load_algebra("sigma3"))
    rule.cell_dims = {ci: (0,) for ci in rule.cell_dims}
    page = build_e1(rank4_complex, rule, all_cells(rank4_complex))
    flip_a_face_sign(page)
    assert check_d_squared(page)


def test_identity_face_dim_mismatch_is_an_error(rank4_complex):
    # wreath coefficients everywhere but on one edge, whose identity faces
    # then join spaces of different dimensions, first in degree 7
    rule = constant_rule(rank4_complex, BOUND, load_algebra("wreath"))
    first_edge = rank4_complex.cells_of_dim(1)[0]
    rule.cell_dims[first_edge.index] = dimensions(load_algebra("sigma3"), BOUND).dims
    message = "identity face of cell 17 has mismatched dims (2 vs 1) in degree 7"
    with pytest.raises(CoefficientRuleError, match=re.escape(message)):
        page_oracle.build_e1(rank4_complex, rule, all_cells(rank4_complex))
    with pytest.raises(CoefficientRuleError, match=re.escape(message)):
        build_e1(rank4_complex, rule, all_cells(rank4_complex))


def test_identity_face_dim_mismatch_beside_a_special_face(rank4_complex):
    """The whole complex under the shipped rule: the per-degree page
    finds the edges at the big vertices joining unequal dims, and the
    page refuses the special edge before it reads any face as an
    identity."""
    rule = sylow_rule(rank4_complex, BOUND)
    edge = special_edge(rank4_complex, rule)
    with pytest.raises(CoefficientRuleError, match="identity face of cell .* has mismatched dims"):
        page_oracle.build_e1(rank4_complex, rule, all_cells(rank4_complex))
    message = f"cell {edge.index} has a special face; a page has identity faces only"
    with pytest.raises(CoefficientRuleError, match=re.escape(message)):
        build_e1(rank4_complex, rule, all_cells(rank4_complex))


def test_uncovered_cell_is_an_error(rank4_complex):
    rule = constant_rule(rank4_complex, BOUND, load_algebra("sigma3"))
    del rule.cell_dims[rank4_complex.cells[0].index]
    with pytest.raises(CoefficientRuleError):
        build_e1(rank4_complex, rule, all_cells(rank4_complex))


def test_cell_list_must_be_closed_under_faces(rank4_complex):
    rule = constant_rule(rank4_complex, BOUND, load_algebra("sigma3"))
    edge = rank4_complex.cells_of_dim(1)[0]
    with pytest.raises(CoefficientRuleError, match="closed under faces"):
        build_e1(rank4_complex, rule, [edge.index, edge.faces[0]])


def sylow_page(anchor, bound):
    """The page ``component_cohomology`` reads for the component holding
    ``anchor``."""
    return lambda cx: (sylow_rule(cx, bound), component_cells(cx, anchor))


def two_dims_classes(cx):
    """Identity faces only, sigma3 on the rose and theta11 components and
    the wreath dims on the K33 component."""
    sigma3 = dimensions(load_algebra("sigma3"), 40).dims
    wreath = dimensions(load_algebra("wreath"), 40).dims
    k33 = cx.component_containing("K33")
    cell_dims = {c.index: wreath if cx.component_of[c.index] == k33 else sigma3 for c in cx.cells}
    return CoefficientRule(40, cell_dims, {}), all_cells(cx)


PAGES = {
    "rose-24": sylow_page("R4", 24),
    "rose-120": sylow_page("R4", 120),
    "theta11-24": sylow_page("Theta2^{1,1}", 24),
    "theta11-120": sylow_page("Theta2^{1,1}", 120),
    "constant-40": lambda cx: (constant_rule(cx, 40, load_algebra("sigma3")), all_cells(cx)),
    "two-dims-classes-40": two_dims_classes,
}


@pytest.mark.parametrize("name", PAGES)
def test_page_matches_the_per_degree_oracle(rank4_complex, name):
    """The rank in every (s, q), the cohomology and d^2 = 0 against the
    page written out degree by degree."""
    rule, cells = PAGES[name](rank4_complex)
    page = build_e1(rank4_complex, rule, cells)
    want = page_oracle.build_e1(rank4_complex, rule, cells)
    assert page_ranks(page) == page_oracle.page_ranks(want)
    assert page_cohomology(page) == page_oracle.page_cohomology(want)
    assert check_d_squared(page) == page_oracle.check_d_squared(want)


def test_page_forms_of_the_oracle_pages(rank4_complex):
    """The two-class page case has two dims classes wherever the K33
    component has cells."""
    two = build_e1(rank4_complex, *two_dims_classes(rank4_complex))
    assert [len({two.dims[ci] for ci in two.incidences[s]}) for s in (0, 1, 2)] == [2, 2, 1]


@pytest.mark.parametrize("bound", [24, 120])
def test_k33_segment_matches_the_per_degree_oracle(rank4_complex, bound):
    """The K33 component, the alpha/beta equalizer, against the segment's
    page written out degree by degree with its face maps: column 0 is the
    component's cohomology and column 1 is zero."""
    rule = sylow_rule(rank4_complex, bound)
    edge = special_edge(rank4_complex, rule)
    want = page_oracle.page_cohomology(page_oracle.build_e1(rank4_complex, rule, [edge.index, *edge.faces]))
    got = component_cohomology(rank4_complex, rank4_complex.component_containing("K33"), bound, rule)
    assert got.dims == tuple(want[(0, q)] for q in range(bound + 1))
    assert not any(want[(1, q)] for q in range(bound + 1))


def test_rose_page_ranks_do_not_depend_on_the_bound(rank4_complex, monkeypatch):
    """Each of the rose's three incidences has one dims class and is
    ranked once, at any degree bound."""
    calls = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows, p: calls.append(p) or real(rows, p))
    counts = []
    for bound in (24, 120):
        page = build_e1(rank4_complex, sylow_rule(rank4_complex, bound), component_cells(rank4_complex, "R4"))
        assert sum(len(rows) for rows in page.incidences.values()) == 26
        before = len(calls)
        page_cohomology(page)
        counts.append(len(calls) - before)
    assert counts == [3, 3]


def test_corollary_eliminations_at_bound_120(rank4_complex, monkeypatch):
    """One corollary at bound 120 eliminates 6 times on 39 rows: the
    rose's three incidences (26 rows) and three boundary maps of the
    retraction check's two pieces (13 rows).  The K33 segment is an
    equalizer, ranked by gain-graph passes."""
    sizes = []
    real = linalg.echelon
    monkeypatch.setattr(linalg, "echelon", lambda rows, p: sizes.append(len(rows)) or real(rows, p))
    corollary_dims(rank4_complex, 120)
    assert (len(sizes), sum(sizes)) == (6, 39)


def test_cohomology_pass_counts_at_bound_120(rank4_complex, monkeypatch):
    """A warm pass of the six criteria that read the algebras, at bound
    120, eliminates 127 times on 1,840 rows, and ranks the single pairs of
    single-term maps by 1,065 gain-graph passes over 12,593 columns.  No
    row changes a pivot row kept before it: the pivot rows of every prefix
    of an elimination's rows are pivot rows of the whole.  The code tables
    are shared per signature, so the pass packs only its morphisms'
    generator images and units: 132 monomials.

    The wreath criterion ranks its witness in the swap's eigen-coordinates,
    where the witness is single-term, so it eliminates nothing.  Ranking
    the witness's sums took 121 eliminations of 931 rows, one per degree,
    and the pass made 248 of 2,771; the eigen-coordinate map and its
    composites pack 19 more monomials than the 113 packed before."""
    from spinelab import verification

    def one_pass():
        for name in ("series", "algebra_structure", "wreath", "metacyclic", "recursion", "corollary"):
            args = (rank4_complex, 120) if name == "corollary" else (120,)
            assert getattr(verification, f"criterion_{name}")(*args).passed, name

    one_pass()
    calls, columns, packs = [], [], []
    real, gain, pack = linalg.echelon, linalg.gain_graph_rank, GradedAlgebra.pack
    monkeypatch.setattr(
        linalg, "echelon", lambda rows, p: calls.append((list(rows), p)) or real(calls[-1][0], p)
    )
    monkeypatch.setattr(
        linalg, "gain_graph_rank", lambda left, right, p: columns.append(len(left)) or gain(left, right, p)
    )
    monkeypatch.setattr(
        GradedAlgebra, "pack", lambda self, mono: packs.append(mono) or pack(self, mono)
    )
    one_pass()
    assert (len(calls), sum(len(rows) for rows, _ in calls)) == (127, 1840)
    assert (len(columns), sum(columns)) == (1065, 12593)
    changed = 0
    for rows, p in calls:
        whole = real(rows, p).items()
        changed += sum(not real(rows[:k], p).items() <= whole for k in range(len(rows)))
    assert changed == 0
    assert len(packs) == 132
    calls.clear()
    assert verification.criterion_wreath(120).passed
    assert not calls


def test_rose_component_cohomology(rank4_complex, sigma3_dims):
    comp = rank4_complex.component_containing("R4")
    assert component_cohomology(rank4_complex, comp, BOUND).dims == sigma3_dims


def test_k33_component_is_the_equalizer(rank4_complex):
    comp = rank4_complex.component_containing("K33")
    dims = component_cohomology(rank4_complex, comp, BOUND)
    chi = (
        PowerSeriesRat.make([1, 0, 0, 1])
        * PowerSeriesRat.make([1, 0, 0, 0, 0, 0, 0, 2, 1])
        * PowerSeriesRat.make([1], [1, 0, 0, 0, -1])
        * PowerSeriesRat.make([1], [1, 0, 0, 0, 0, 0, 0, 0, -1])
    )
    assert dims.dims == chi.coefficients(BOUND)


def test_k33_component_builds_each_image_once(rank4_complex, monkeypatch):
    """The segment's equalizer reads each degree of alpha and beta once, in
    ascending order, so each source monomial of positive degree of alpha and beta
    has its image built by one kernel product."""
    from spinelab import algebra

    products = []
    real = algebra._times
    monkeypatch.setattr(algebra, "_times", lambda *args: products.append(args) or real(*args))
    component_cohomology(rank4_complex, rank4_complex.component_containing("K33"), BOUND)
    sources = [load_algebra(name) for name in ("stab_k33", "stab_wedge")]
    monomials = sum(len(alg.basis(d)) for alg in sources for d in range(1, BOUND + 1))
    assert len(products) == monomials


def test_corollary_sum(rank4_complex, sigma3_dims):
    out = corollary_dims(rank4_complex, BOUND)
    chi = (
        PowerSeriesRat.make([1, 0, 0, 1])
        * PowerSeriesRat.make([1, 0, 0, 0, 0, 0, 0, 2, 1])
        * PowerSeriesRat.make([1], [1, 0, 0, 0, -1])
        * PowerSeriesRat.make([1], [1, 0, 0, 0, 0, 0, 0, 0, -1])
    ).coefficients(BOUND)
    for d in range(6, BOUND + 1):
        assert out["total"][d] == 2 * sigma3_dims[d] + chi[d]


def zero_morphism(source, target):
    """Generators to zero: the unit still goes to the unit."""
    images = {g.name: Element.zero(target) for g in source.generators}
    return AlgebraMorphism(source, target, images)


def special_edge(cx, rule):
    (edge,) = {ci for ci, _ in rule.special_faces}
    return cx.cells[edge]


def test_segment_page_requires_a_vanishing_cokernel(rank4_complex):
    """With both face maps zero on every generator, the edge algebra above
    degree 0 is the cokernel of [alpha, -beta], and it survives at column
    one of the segment page, first in the lowest positive degree of the
    edge algebra."""
    rule = sylow_rule(rank4_complex, BOUND)
    for key, morphism in rule.special_faces.items():
        rule.special_faces[key] = zero_morphism(morphism.source, morphism.target)
    edge_dims = rule.cell_dims[special_edge(rank4_complex, rule).index]
    first = next(q for q in range(1, BOUND + 1) if edge_dims[q])
    component = rank4_complex.component_containing("K33")
    with pytest.raises(ConcentrationError, match=f"page survives at column 1, degree {first}$"):
        component_cohomology(rank4_complex, component, BOUND, rule)


def test_k33_component_refuses_a_big_stabilizer_off_the_edge(rank4_complex):
    """The segment answers for its component only if the rest of the
    component is an identity region."""
    component = rank4_complex.component_containing("K33")
    edge = special_edge(rank4_complex, sylow_rule(rank4_complex, BOUND))
    other = next(
        c
        for c in rank4_complex.cells_of_dim(1)
        if rank4_complex.component_of[c.index] == component and c.index != edge.index
    )
    cells = list(rank4_complex.cells)
    cells[other.index] = replace(other, isotropy_order=3 * other.isotropy_order)
    cx = replace(rank4_complex, cells=cells)
    with pytest.raises(ConcentrationError, match="big stabilizer"):
        component_cohomology(cx, component, BOUND)


def test_k33_component_refuses_a_second_special_edge(rank4_complex):
    """A copy of the special edge joins the same two vertices, so the
    component no longer retracts onto one segment."""
    component = rank4_complex.component_containing("K33")
    edge = special_edge(rank4_complex, sylow_rule(rank4_complex, BOUND))
    copy = replace(edge, index=len(rank4_complex.cells))
    cx = replace(
        rank4_complex,
        cells=[*rank4_complex.cells, copy],
        component_of=[*rank4_complex.component_of, component],
    )
    with pytest.raises(ConcentrationError, match="both special endpoints"):
        component_cohomology(cx, component, BOUND)


def test_amalgam_rank_nullity_on_restriction_data(rank4_complex):
    """The K33 component with alpha surjective: dim H(d) = h1(d) + h2(d) -
    h12(d)."""
    alpha, beta = load_morphisms(["alpha", "beta"])
    h1 = dimensions(alpha.source, BOUND).dims
    h2 = dimensions(beta.source, BOUND).dims
    h12 = dimensions(alpha.target, BOUND).dims
    comp = rank4_complex.component_containing("K33")
    dims = component_cohomology(rank4_complex, comp, BOUND)
    for d in range(BOUND + 1):
        assert alpha.is_surjective_in_degree(d)
        assert dims[d] == h1[d] + h2[d] - h12[d]


def test_k33_amalgam_matches_the_dense_pair_kernel(rank4_complex):
    """The K33 component against the dense path it replaced, cols -
    rank [alpha | -beta] from the dense matrices, and against the
    equalizer the series criterion reads."""
    alpha, beta, _, f, g = _alpha_beta()
    comp = rank4_complex.component_containing("K33")
    dense = tuple(
        oracle.pair_kernel_dim(
            alpha.matrix_in_degree(d),
            beta.matrix_in_degree(d),
            len(alpha.source.basis(d)),
            len(beta.source.basis(d)),
            3,
        )
        for d in range(61)
    )
    assert component_cohomology(rank4_complex, comp, 60).dims == dense
    assert equalizer(f, g, 60).dims == dense


def test_recursion_pipeline_degenerate():
    alg, images = load_thm_input(3)
    rep = theorem_pipeline(3, alg, images, 20)
    assert rep.identity_holds
    assert rep.eq_dims.dims == rep.invariant_dims.dims
    assert not any(rep.kernel_tensor_dims.dims)


def test_recursion_pipeline_synthetic_kernel():
    rep = theorem_pipeline(5, SYNTHETIC, {"u7": "u7", "c8": "c8", "e15": "0"}, 32)
    assert rep.identity_holds
    assert any(rep.kernel_tensor_dims.dims)


def oracle_recursion_dims(p, aut_input, images, bound):
    """(equalizer, invariant) dims of the recursion pipeline the long way:
    the invariants are the column space of the averaging projector
    (1 + swap) / 2, and the equalizer of f1 with their inclusion is the
    kernel of [f1 | -inclusion]."""
    M, _, f1 = _recursion_maps(p, aut_input, images)
    big, MM = f1.source, f1.target
    swap = swap_action(MM, [(g.name + "_1", g.name + "_2") for g in M.generators])
    half = pow(2, p - 2, p)
    eq_dims, inv_dims = [], []
    for d in range(bound + 1):
        n = len(MM.basis(d))
        s = swap.matrix_in_degree(d)
        proj = [[half * ((i == j) + s[i][j]) % p for j in range(n)] for i in range(n)]
        rr, pivots = oracle.rref([list(col) for col in zip(*proj)], p)
        inclusion = [[rr[k][r] for k in range(len(pivots))] for r in range(n)]
        eq_dims.append(
            oracle.pair_kernel_dim(
                f1.matrix_in_degree(d), inclusion, len(big.basis(d)), len(pivots), p
            )
        )
        inv_dims.append(len(pivots))
    return tuple(eq_dims), tuple(inv_dims)


@pytest.mark.parametrize(
    "p,aut_input,images",
    [
        (3, *load_thm_input(3)),
        (5, SYNTHETIC, {"u7": "u7", "c8": "c8", "e15": "0"}),
    ],
    ids=["p3-fixture", "p5-synthetic"],
)
def test_recursion_equalizer_matches_inclusion_oracle(p, aut_input, images):
    rep = theorem_pipeline(p, aut_input, images, 60)
    eq_dims, inv_dims = oracle_recursion_dims(p, aut_input, images, 60)
    assert rep.eq_dims.dims == eq_dims
    assert rep.invariant_dims.dims == inv_dims


def test_recursion_pipeline_rejects_nonsurjective():
    bad = GradedAlgebra(5, [("u7", 7, "ext"), ("c16", 16, "poly")])
    with pytest.raises(ValueError, match="degree 8"):
        theorem_pipeline(5, bad, {"u7": "u7", "c16": "c8^2"}, 20)
