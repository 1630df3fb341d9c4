"""Page assembly, component cohomology and the recursion pipeline."""

from dataclasses import replace

import pytest

import linalg_oracle as oracle
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
    sylow_rule,
    theorem_pipeline,
)
from spinelab.fixtures import load_algebra, load_algebras, load_morphism, load_thm_input
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


def test_check_d_squared_catches_a_flipped_face_sign(rank4_complex):
    rule = constant_rule(rank4_complex, 0, load_algebra("sigma3"))
    page = build_e1(rank4_complex, rule, all_cells(rank4_complex))
    assert check_d_squared(page)
    d0, d1 = page.differentials[(0, 0)], page.differentials[(1, 0)]
    # negating d1[r][c] adds -2 d1[r][c] d0[c] to row r of d1 d0, which is
    # nonzero when row c of d0 is
    r, c = next((r, c) for r, row in enumerate(d1) for c in row if d0[c])
    d1[r][c] = -d1[r][c] % page.p
    assert not check_d_squared(page)


def test_identity_face_dim_mismatch_is_an_error(rank4_complex):
    # wreath coefficients everywhere force identity faces between spaces
    # of different dimensions
    with pytest.raises(CoefficientRuleError):
        rule = constant_rule(rank4_complex, BOUND, load_algebra("wreath"))
        bad = dict(rule.cell_dims)
        first_edge = rank4_complex.cells_of_dim(1)[0]
        bad[first_edge.index] = dimensions(load_algebra("sigma3"), BOUND).dims
        rule.cell_dims.update(bad)
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


@pytest.mark.parametrize("bound", [10, 40])
def test_full_page_reads_each_face_once(rank4_complex, monkeypatch, bound):
    """The page asks the rule for each face of each cell of dimension >= 1
    once, whatever the degree bound."""
    calls = []
    real = CoefficientRule.face_morphism
    monkeypatch.setattr(
        CoefficientRule, "face_morphism", lambda rule, ci, k: calls.append((ci, k)) or real(rule, ci, k)
    )
    rule = constant_rule(rank4_complex, bound, load_algebra("sigma3"))
    build_e1(rank4_complex, rule, all_cells(rank4_complex))
    pairs = [(c.index, k) for c in rank4_complex.cells if c.dim >= 1 for k in range(len(c.faces))]
    assert len(pairs) == 99
    assert sorted(calls) == pairs


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
    """The segment page reads each degree of alpha and beta once, in
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
    one of the segment page."""
    rule = sylow_rule(rank4_complex, BOUND)
    edge = special_edge(rank4_complex, rule)
    for key, morphism in rule.special_faces.items():
        rule.special_faces[key] = zero_morphism(morphism.source, morphism.target)
    page = build_e1(rank4_complex, rule, [edge.index, *edge.faces])
    with pytest.raises(ConcentrationError, match="column 1"):
        equivariant_cohomology_from_page(page)


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
    algebras = load_algebras()
    alpha = load_morphism("alpha", algebras)
    beta = load_morphism("beta", algebras)
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
