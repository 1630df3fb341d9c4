"""Page assembly, component cohomology, amalgams and the recursion pipeline."""

import pytest

from spinelab import linalg
from spinelab.algebra import GradedAlgebra, dimensions, swap_action
from spinelab.assembly import (
    _recursion_maps,
    CoefficientRuleError,
    amalgam_cohomology,
    build_e1,
    check_d_squared,
    component_cohomology,
    constant_rule,
    corollary_dims,
    equivariant_cohomology_from_page,
    sylow_rule,
    theorem_pipeline,
)
from spinelab.fixtures import load_algebra, load_thm_input
from spinelab.series import PowerSeriesRat

BOUND = 24
# a recursion input with a nonzero restriction kernel (e15)
SYNTHETIC = GradedAlgebra(5, [("u7", 7, "ext"), ("c8", 8, "poly"), ("e15", 15, "ext")])


@pytest.fixture(scope="module")
def sigma3_dims():
    return dimensions(load_algebra("sigma3"), BOUND).dims


def test_rose_page_shape(rank4_complex):
    rule = sylow_rule(rank4_complex, BOUND, with_special_edge=False)
    page = build_e1(rank4_complex, rule, rank4_complex.component_containing("R4"))
    assert {s: len(v) for s, v in page.cells_by_dim.items()} == {0: 7, 1: 13, 2: 10, 3: 3}


def test_single_point_component(rank4_complex, sigma3_dims):
    comp = rank4_complex.component_containing("Theta2^{1,1}")
    rule = sylow_rule(rank4_complex, BOUND, with_special_edge=False)
    page = build_e1(rank4_complex, rule, comp)
    assert {s: len(v) for s, v in page.cells_by_dim.items()} == {0: 1}
    assert equivariant_cohomology_from_page(page).dims == sigma3_dims


def test_d_squared_zero_full_complex(rank4_complex):
    page = build_e1(rank4_complex, constant_rule(rank4_complex, BOUND, load_algebra("sigma3")))
    assert check_d_squared(page)


def test_identity_face_dim_mismatch_is_an_error(rank4_complex):
    # wreath coefficients everywhere force identity faces between spaces
    # of different dimensions
    with pytest.raises(CoefficientRuleError):
        rule = constant_rule(rank4_complex, BOUND, load_algebra("wreath"))
        bad = dict(rule.cell_dims)
        first_edge = rank4_complex.cells_of_dim(1)[0]
        bad[first_edge.index] = dimensions(load_algebra("sigma3"), BOUND).dims
        rule.cell_dims.update(bad)
        build_e1(rank4_complex, rule)


def test_uncovered_cell_is_an_error(rank4_complex):
    rule = constant_rule(rank4_complex, BOUND, load_algebra("sigma3"))
    del rule.cell_dims[rank4_complex.cells[0].index]
    with pytest.raises(CoefficientRuleError):
        build_e1(rank4_complex, rule)


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


def test_segment_page_matches_the_amalgam(rank4_complex):
    """The two-vertex/one-edge page computes the same answer as the
    component-level amalgam, concentrated in column zero."""
    from spinelab.assembly import special_edge_cells

    cells = special_edge_cells(rank4_complex)
    rule = sylow_rule(rank4_complex, BOUND, with_special_edge=True)
    page = build_e1(rank4_complex, rule, cell_indices=cells)
    dims = equivariant_cohomology_from_page(page)
    comp = rank4_complex.component_containing("K33")
    assert dims.dims == component_cohomology(rank4_complex, comp, BOUND).dims


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


def test_amalgam_zero_maps_give_direct_sum():
    h1 = (1, 0, 2)
    h2 = (1, 1, 0)
    h12 = (0, 0, 0)
    f1 = [[[0] * c for _ in range(0)] for c in h1]
    f2 = [[[0] * c for _ in range(0)] for c in h2]
    dims = amalgam_cohomology(h1, h2, h12, f1, f2, 2, 3)
    assert dims.dims == (2, 1, 2)


def test_amalgam_rank_nullity_on_synthetic_data():
    alg = GradedAlgebra(5, [("a8", 8, "poly"), ("b7", 7, "ext")])
    h = dimensions(alg, 20).dims
    ident = [
        [[1 if i == j else 0 for j in range(h[d])] for i in range(h[d])]
        for d in range(21)
    ]
    other = (2,) * 21
    f2 = [[[0] * 2 for _ in range(h[d])] for d in range(21)]
    dims = amalgam_cohomology(h, other, h, ident, f2, 20, 5)
    # f1 surjective: dim Eq(d) = h2(d) + ker f1(d) = 2 + 0
    assert dims.dims == tuple(2 for _ in range(21))


def test_amalgam_rank_nullity_on_restriction_data():
    """With f1 surjective, dim Eq(d) = h1(d) + h2(d) - h12(d)."""
    from spinelab.fixtures import load_algebras, load_morphism

    algebras = load_algebras()
    alpha = load_morphism("alpha", algebras)
    beta = load_morphism("beta", algebras)
    h1 = dimensions(alpha.source, BOUND).dims
    h2 = dimensions(beta.source, BOUND).dims
    h12 = dimensions(alpha.target, BOUND).dims
    f1 = [alpha.matrix_in_degree(d) for d in range(BOUND + 1)]
    f2 = [beta.matrix_in_degree(d) for d in range(BOUND + 1)]
    dims = amalgam_cohomology(h1, h2, h12, f1, f2, BOUND, 3)
    for d in range(BOUND + 1):
        assert dims[d] == h1[d] + h2[d] - h12[d]


def test_amalgam_requires_a_surjection():
    h = (1,)
    zero = [[[0]]]
    with pytest.raises(ValueError, match="degree 0"):
        amalgam_cohomology(h, h, h, zero, zero, 0, 3)


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
        rr, pivots = linalg.rref([list(col) for col in zip(*proj)], p)
        inclusion = [[rr[k][r] for k in range(len(pivots))] for r in range(n)]
        eq_dims.append(
            linalg.pair_kernel_dim(
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
