"""Graded algebras, morphisms, equalizers and invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from spinelab import linalg
from spinelab.algebra import (
    POLY_SLOT_BITS,
    _codes,
    _common_kernel,
    _kernel_rows,
    _parents,
    AlgebraMorphism,
    Element,
    GradedAlgebra,
    ProductAlgebra,
    ProductMorphism,
    cohomology_of_metacyclic,
    compose_morphisms,
    dimensions,
    equalizer,
    invariants,
    parse_element,
    swap_action,
    tensor,
    verify_free_module,
)
from spinelab.assembly import _recursion_maps
from spinelab.fixtures import load_algebra, load_algebras, load_morphisms, load_thm_input
from spinelab.series import PowerSeriesRat, geometric, one_plus
from spinelab.verification import _structure_elements, _wreath_maps


def identity_morphism(alg):
    return AlgebraMorphism(
        alg, alg, {g.name: alg.generator_element(g.name) for g in alg.generators}
    )


def oracle_apply_monomial(morphism, mono):
    """The image of a monomial as the full left-to-right product of its
    generators' images, built from scratch."""
    out = Element.one(morphism.target)
    for e, g in zip(mono, morphism.source.generators):
        for _ in range(e):
            out = out * morphism.images[g.name]
    return out


def vector(x, d):
    """The coordinates of a degree-d element on the degree-d basis; a term
    of another degree is a KeyError."""
    index = x.parent._basis_index(d)
    vec = [0] * len(index)
    for m, c in x.coeffs.items():
        vec[index[m]] = c
    return vec


def oracle_matrix(morphism, d):
    tgt = morphism.target.basis(d)
    src = morphism.source.basis(d)
    cols = [vector(oracle_apply_monomial(morphism, mono), d) for mono in src]
    return [[cols[j][i] for j in range(len(src))] for i in range(len(tgt))]


def oracle_product_matrix(morphism, d):
    """The dense matrix of a ``ProductMorphism``: its inner map's
    full-product matrix on the chosen component's columns, zeros on the
    other components' columns."""
    rows = len(morphism.target.basis(d))
    blocks = [
        oracle_matrix(morphism.inner, d)
        if ci == morphism.component
        else [[0] * len(comp.basis(d)) for _ in range(rows)]
        for ci, comp in enumerate(morphism.source.components)
    ]
    return [sum((block[i] for block in blocks), []) for i in range(rows)]


def oracle_equalizer_basis(f, g, d):
    """The kernel of f - g in degree d as source elements: the dense
    oracle's kernel basis of the difference of the two dense matrices."""
    basis, p = f.source.basis(d), f.source.p
    diff = [
        [x - y for x, y in zip(row_f, row_g)]
        for row_f, row_g in zip(oracle_product_matrix(f, d), oracle_product_matrix(g, d))
    ]
    return [Element(f.source, dict(zip(basis, vec))) for vec in oracle.nullspace(diff, len(basis), p)]


def oracle_basis(alg, d):
    """Degree-d monomials by recursion over every exponent, sorted."""
    out = []

    def rec(i, remaining, prefix):
        if i == len(alg.generators):
            if remaining == 0:
                out.append(tuple(prefix))
            return
        g = alg.generators[i]
        top = 1 if g.kind == "ext" else remaining // g.degree
        for e in range(min(top, remaining // g.degree) + 1):
            rec(i + 1, remaining - e * g.degree, prefix + [e])

    rec(0, d, [])
    return tuple(sorted(out))


@pytest.fixture(scope="module")
def setup():
    algebras = load_algebras()
    alpha, beta = load_morphisms(["alpha", "beta"], algebras)
    source = ProductAlgebra([alpha.source, beta.source])
    f = ProductMorphism(source, 0, alpha)
    g = ProductMorphism(source, 1, beta)
    return algebras, alpha, beta, source, f, g


def test_generator_validation():
    with pytest.raises(ValueError):
        GradedAlgebra(3, [("a", 3, "poly")])  # poly must be even
    with pytest.raises(ValueError):
        GradedAlgebra(3, [("a", 4, "ext")])  # ext must be odd
    with pytest.raises(ValueError):
        GradedAlgebra(4, [("a", 2, "poly")])  # p must be an odd prime


def test_dimensions_examples():
    sigma3 = load_algebra("sigma3")
    assert dimensions(sigma3, 8).dims == (1, 0, 0, 1, 1, 0, 0, 1, 1)
    wreath = load_algebra("wreath")
    # degree 10 admits only the product of the two exterior generators
    assert dimensions(wreath, 10)[10] == 1
    ground = GradedAlgebra(3, [])
    assert dimensions(ground, 5).dims == (1, 0, 0, 0, 0, 0)


def poincare_series(alg) -> PowerSeriesRat:
    """The product over generators of 1/(1 - t^d) for a polynomial one
    and 1 + t^d for an exterior one."""
    series = PowerSeriesRat.make([1])
    for g in alg.generators:
        series = series * (geometric(g.degree) if g.kind == "poly" else one_plus(g.degree))
    return series


def test_dimensions_match_poincare_series():
    for name in ("sigma3", "wreath", "stab_k33", "double_sigma3"):
        alg = load_algebra(name)
        assert dimensions(alg, 30).dims == poincare_series(alg).coefficients(30)


@settings(max_examples=60)
@given(
    exps_a=st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1), st.integers(0, 2)),
    exps_b=st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1), st.integers(0, 2)),
)
def test_koszul_commutativity(exps_a, exps_b):
    alg = GradedAlgebra(
        5, [("c", 2, "poly"), ("u", 3, "ext"), ("v", 5, "ext"), ("d", 4, "poly")]
    )
    a = Element(alg, {exps_a: 1})
    b = Element(alg, {exps_b: 1})
    da = alg.monomial_degree(exps_a)
    db = alg.monomial_degree(exps_b)
    sign = -1 if (da % 2 and db % 2) else 1
    assert a * b == sign * (b * a)


def test_restriction_map_values(setup):
    _, alpha, beta, _, _, _ = setup
    edge = alpha.target
    assert alpha.apply(alpha.source.generator_element("x8")) == parse_element(edge, "z4^2")
    assert beta.apply(beta.source.generator_element("v7")).is_zero()
    assert alpha.apply(alpha.source.generator_element("u7")) == parse_element(edge, "z4*w3")


def test_identity_morphism_and_inhomogeneous_error(setup):
    algebras, *_ = setup
    sigma3 = algebras["sigma3"]
    ident = identity_morphism(sigma3)
    homog = parse_element(sigma3, "2*a4^2")
    assert ident.apply(homog) == homog
    x = parse_element(sigma3, "a4 + 2*a4^2")
    with pytest.raises(ValueError):
        ident.apply(x)
    with pytest.raises(ValueError):
        x.degree()


def test_matrix_in_degree_is_multiplicative(setup):
    _, alpha, _, _, _, _ = setup
    x = parse_element(alpha.source, "x4*u3")
    assert alpha.apply(x) == alpha.apply(
        alpha.source.generator_element("x4")
    ) * alpha.apply(alpha.source.generator_element("u3"))
    mat = alpha.matrix_in_degree(7)
    col = vector(x, 7)
    image = vector(alpha.apply(x), 7)
    got = [sum(mat[r][c] * col[c] for c in range(len(col))) % 3 for r in range(len(mat))]
    assert got == image


def test_apply_monomial_matches_full_products(setup):
    # out of order, through an algebra and through the product's
    # projection, whose other component maps to zero
    _, alpha, _, source, f, _ = setup
    for d in (16, 0, 7, 3):
        for mono in alpha.source.basis(d):
            got = alpha.apply(Element(alpha.source, {mono: 1}))
            assert got == oracle_apply_monomial(alpha, mono), mono
        for ci, mono in source.basis(d):
            want = oracle_apply_monomial(alpha, mono) if ci == 0 else Element.zero(alpha.target)
            assert f.apply(Element(source, {(ci, mono): 1})) == want, (ci, mono)


def test_equalizer_dims_and_membership(setup):
    _, _, _, source, f, g = setup
    eq = equalizer(f, g, 12)
    assert eq.dims[:9] == (1, 0, 0, 1, 1, 0, 0, 3, 3)
    hk, hw = source.components
    r4 = source.pair(parse_element(hk, "x4"), parse_element(hw, "2*y4"))
    assert f.apply(r4) == g.apply(r4)
    assert eq[4] == 1
    # the dense kernel's degree-4 basis vector spans the same line as (x4, 2y4)
    (vec,) = oracle_equalizer_basis(f, g, 4)
    assert vec == r4 or vec == 2 * r4


def test_equalizer_of_equal_maps_is_everything(setup):
    _, _, _, source, f, _ = setup
    eq = equalizer(f, f, 10)
    assert eq.dims == dimensions(source, 10).dims


def test_equalizer_closed_under_multiplication(setup):
    _, _, _, _, f, g = setup
    eq = equalizer(f, g, 16)
    kernels = {d: oracle_equalizer_basis(f, g, d) for d in (3, 4, 7, 8)}
    for d, kernel in kernels.items():
        assert len(kernel) == eq[d], d
    for d1 in (3, 4, 7):
        for d2 in (3, 4, 8):
            for a in kernels[d1]:
                for b in kernels[d2]:
                    product = a * b
                    if not product.is_zero():
                        assert f.apply(product) == g.apply(product)


def test_equalizer_rejects_mismatched_sources(setup):
    algebras, alpha, beta, source, f, g = setup
    other = ProductMorphism(ProductAlgebra([beta.source, alpha.source]), 0, beta)
    with pytest.raises(ValueError):
        equalizer(f, other, 5)


def test_invariants_trivial_group():
    big = load_algebra("double_sigma3")
    inv = invariants(big, [], 12)
    assert inv.dims == dimensions(big, 12).dims


def test_invariants_wreath(setup):
    big = load_algebra("double_sigma3")
    wreath = load_algebra("wreath")
    swap = swap_action(big, [("c41", "c42"), ("d31", "d32")])
    inv = invariants(big, [swap], 24)
    assert inv.dims == dimensions(wreath, 24).dims
    assert inv[8] == 2


def test_invariant_projector_is_idempotent():
    from spinelab import linalg

    big = load_algebra("double_sigma3")
    swap = swap_action(big, [("c41", "c42"), ("d31", "d32")])
    p = 3
    for d in (4, 7, 8, 11):
        size = len(big.basis(d))
        ident_mat = identity_morphism(big).matrix_in_degree(d)
        swap_mat = swap.matrix_in_degree(d)
        ninv = pow(2, p - 2, p)
        proj = [
            [(ninv * (ident_mat[i][j] + swap_mat[i][j])) % p for j in range(size)]
            for i in range(size)
        ]
        assert oracle.mat_mul(proj, proj, p) == proj
        inv = invariants(big, [swap], d)
        assert inv[d] == linalg.rank(proj, p)
        assert inv[d] <= size


def test_equalizer_dims_bounded_by_source(setup):
    _, _, _, source, f, g = setup
    eq = equalizer(f, g, 16)
    for d in range(17):
        assert eq[d] <= dimensions(source, 16)[d]


@pytest.mark.parametrize(
    "perms,dims",
    [
        # Z/3: cyclic monomial orbits, counted by Burnside
        ([(1, 2, 0)], (1, 0, 1, 0, 2, 0, 4, 0, 5)),
        # S_3: partitions of the half degree into at most three parts
        ([(1, 2, 0), (1, 0, 2)], (1, 0, 1, 0, 2, 0, 3, 0, 4)),
    ],
    ids=["cyclic", "symmetric"],
)
def test_invariants_of_modular_permutation_groups_count_orbits(perms, dims):
    # over F_3, whose p divides both group orders, the invariants of a
    # permutation action are spanned by the orbit sums of monomials
    alg = GradedAlgebra(3, [("c0", 2, "poly"), ("c1", 2, "poly"), ("c2", 2, "poly")])
    action = [
        AlgebraMorphism(
            alg, alg, {f"c{i}": alg.generator_element(f"c{j}") for i, j in enumerate(perm)}
        )
        for perm in perms
    ]
    assert invariants(alg, action, 8).dims == dims


@pytest.mark.parametrize("p", [5, 7, 11])
def test_invariants_of_diagonal_scaling_count_monomials(p):
    # lam of order m = p - 1 scales x^a y^b by lam^(a + b)
    base = GradedAlgebra(p, [("x", 1, "ext"), ("y", 2, "poly")])
    m = p - 1
    lam = pow(_primitive_root(p), (p - 1) // m, p)
    scale = AlgebraMorphism(
        base,
        base,
        {"x": lam * base.generator_element("x"), "y": lam * base.generator_element("y")},
    )
    want = tuple(
        sum(1 for a in (0, 1) for b in range(d + 1) if a + 2 * b == d and (a + b) % m == 0)
        for d in range(41)
    )
    assert invariants(base, [scale], 40).dims == want


def _primitive_root(p):
    return next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)


def test_invariants_reject_a_map_off_the_algebra():
    alg = GradedAlgebra(3, [("c1", 2, "poly"), ("c2", 2, "poly")])
    other = GradedAlgebra(3, [("d1", 2, "poly"), ("d2", 2, "poly")])
    out = AlgebraMorphism(
        alg, other, {"c1": other.generator_element("d1"), "c2": other.generator_element("d2")}
    )
    into = AlgebraMorphism(
        other, alg, {"d1": alg.generator_element("c1"), "d2": alg.generator_element("c2")}
    )
    for morphism in (out, into):
        with pytest.raises(ValueError):
            invariants(alg, [morphism], 4)


def test_common_kernel_keeps_its_two_refusals():
    alg = GradedAlgebra(3, [("c2", 2, "poly"), ("c4", 4, "poly")])
    other = GradedAlgebra(3, [("d2", 2, "poly"), ("d4", 4, "poly")])
    ident = identity_morphism(alg)
    into_other = AlgebraMorphism(
        alg, other, {"c2": other.generator_element("d2"), "c4": other.generator_element("d4")}
    )
    with pytest.raises(ValueError, match="equal source and target"):
        equalizer(ident, into_other, 4)
    # images are checked when a morphism is made, so break one afterwards
    shifted = AlgebraMorphism(alg, alg, dict(ident.images))
    c4 = alg._terms(alg.generator_element("c4"))
    shifted._generator_terms = (c4, c4)
    # one pair of single-term maps is ranked as a gain graph, two pairs by
    # elimination; both refuse
    for run in (
        lambda: equalizer(shifted, ident, 4),
        lambda: invariants(alg, [shifted], 4),
        lambda: invariants(alg, [shifted, ident], 4),
    ):
        with pytest.raises(ValueError, match="does not preserve degree"):
            run()
    line = GradedAlgebra(3, [("c2", 2, "poly")])
    top = 2 * ((1 << POLY_SLOT_BITS) - 1)
    for action in ([identity_morphism(line)], [identity_morphism(line)] * 2):
        with pytest.raises(ValueError, match="does not fit its slot"):
            invariants(line, action, top + 2)


def test_a_degree_without_kernel_rows_is_the_whole_source_degree():
    # c2 maps to zero under both maps, so f - g has no rows at all in
    # degrees 1, 2, 4 and 5; degree 1 of the source is empty
    source = GradedAlgebra(5, [("c2", 2, "poly"), ("b3", 3, "ext")])
    target = GradedAlgebra(5, [("d4", 4, "poly"), ("e3", 3, "ext")])
    e3 = target.generator_element("e3")
    f = AlgebraMorphism(source, target, {"c2": Element.zero(target), "b3": e3})
    g = AlgebraMorphism(source, target, {"c2": Element.zero(target), "b3": 2 * e3})
    eq = equalizer(f, g, 5)
    for d in (1, 2, 4, 5):
        assert _kernel_rows(source, [(f, g)], d) == {}, d
        assert eq[d] == len(source.basis(d)), d
    assert eq.dims == (1, 0, 1, 0, 1, 1)


def test_a_morphism_refuses_a_target_over_another_prime():
    source = GradedAlgebra(5, [("c2", 2, "poly")])
    target = GradedAlgebra(3, [("d2", 2, "poly")])
    with pytest.raises(ValueError, match="same prime"):
        AlgebraMorphism(source, target, {"c2": target.generator_element("d2")})


@pytest.mark.parametrize(
    "p,m,degrees", [(3, 2, (3, 4)), (5, 4, (7, 8)), (3, 1, (1, 2))]
)
def test_metacyclic_degrees(p, m, degrees):
    alg = cohomology_of_metacyclic(p, m)
    assert tuple(sorted(g.degree for g in alg.generators)) == degrees


def test_metacyclic_rejects_bad_m():
    with pytest.raises(ValueError):
        cohomology_of_metacyclic(5, 3)


def test_free_module_trivial_case():
    # subring = the whole ambient algebra, module generated by 1
    sigma3 = load_algebra("sigma3")
    ident = identity_morphism(sigma3)
    eq = equalizer(ident, ident, 12)
    gens = [sigma3.generator_element("a4"), sigma3.generator_element("b3")]
    assert verify_free_module(eq, ident, ident, gens, [Element.one(sigma3)], 12)


def test_check_relations(setup):
    _, _, _, source, _, _ = setup
    hk, hw = source.components
    r4 = source.pair(parse_element(hk, "x4"), parse_element(hw, "2*y4"))
    s3 = source.pair(parse_element(hk, "u3"), parse_element(hw, "2*v3"))
    t7 = source.embed(1, parse_element(hw, "v7"))
    t7_tilde = source.pair(parse_element(hk, "u7"), parse_element(hw, "y4*v3"))
    assert t7_tilde * t7 == r4 * s3 * t7
    assert t7 * Element.one(source) == t7
    assert not (t7 * t7 == r4 * s3)  # deliberately false


def test_parse_element_grammar():
    sigma3 = load_algebra("sigma3")
    assert parse_element(sigma3, "2*a4^2 + a4*b3") == 2 * parse_element(
        sigma3, "a4"
    ) ** 2 + parse_element(sigma3, "a4") * parse_element(sigma3, "b3")
    assert parse_element(sigma3, "0").is_zero()
    with pytest.raises(ValueError):
        parse_element(sigma3, "a4 +* b3")


def test_tensor_names():
    sigma3 = load_algebra("sigma3")
    square = tensor(3, sigma3, sigma3, suffixes=["_1", "_2"])
    names = [g.name for g in square.generators]
    assert names == ["a4_1", "b3_1", "a4_2", "b3_2"]
    assert dimensions(square, 8)[8] == 3  # a4_1^2, a4_1 a4_2, a4_2^2


def _oracle_morphisms():
    algebras = load_algebras()
    big = algebras["double_sigma3"]
    synth = GradedAlgebra(5, [("u7", 7, "ext"), ("c8", 8, "poly"), ("e15", 15, "ext")])
    alpha, beta = load_morphisms(["alpha", "beta"], algebras)
    return {
        "alpha": alpha,
        "beta": beta,
        "swap": swap_action(big, [("c41", "c42"), ("d31", "d32")]),
        "witness": _wreath_maps(big, algebras["wreath"])[0],
        "f1 p=3": _recursion_maps(3, *load_thm_input(3))[2],
        "f1 p=5": _recursion_maps(5, synth, {"u7": "u7", "c8": "c8", "e15": "0"})[2],
    }


@pytest.mark.parametrize("name", ["alpha", "beta", "swap", "witness", "f1 p=3", "f1 p=5"])
def test_matrix_in_degree_matches_full_products(name):
    morphism = _oracle_morphisms()[name]
    for d in range(121):
        assert morphism.matrix_in_degree(d) == oracle_matrix(morphism, d), d
    # out of order, after the window has moved past the low degrees
    for d in (120, 3, 60):
        assert morphism.matrix_in_degree(d) == oracle_matrix(morphism, d), d
    fresh = _oracle_morphisms()[name]
    for d in (120, 3, 60):
        assert fresh.matrix_in_degree(d) == oracle_matrix(fresh, d), d


def wreath_witness_ranks(bound):
    """(ranks by elimination, eigen-coordinate ranks, wreath dimensions,
    phi W) through the bound.  The first are the ranks of the wreath
    witness W's sums by ``linalg.rank``, the route the wreath criterion
    took before it ranked phi W, whose images are single terms."""
    algebras = load_algebras()
    big, wreath = algebras["double_sigma3"], algebras["wreath"]
    witness, phi = _wreath_maps(big, wreath)
    eigen = compose_morphisms(phi, witness)
    degrees = range(bound + 1)
    return (
        [linalg.rank(witness._images(d), big.p) for d in degrees],
        [eigen.rank_in_degree(d) for d in degrees],
        [len(wreath.basis(d)) for d in degrees],
        eigen,
    )


def test_wreath_witness_ranks_in_eigen_coordinates_as_by_elimination():
    eliminated, counted, dims, eigen = wreath_witness_ranks(120)
    assert eliminated == counted == dims
    assert eigen.single_term
    want = {"c4": "2*c41", "c8": "c42^2", "d3": "2*d31", "d7": "c42*d32"}
    assert eigen.images == {n: parse_element(eigen.target, t) for n, t in want.items()}


@pytest.mark.parametrize("name, singular", [("c42", "c41 + c42"), ("d32", "0")])
def test_wreath_criterion_refuses_a_singular_substitution(monkeypatch, name, singular):
    """c42 -> c41 + c42 kills c8's image, in degree 8.  d32 -> 0 first
    kills an image in degree 10, d3 d7's, so through degree 9 only the
    check of phi on the generators refuses it."""
    from spinelab import verification

    monkeypatch.setitem(verification.SWAP_EIGEN, name, singular)
    result = verification.criterion_wreath(9)
    assert not result.passed
    assert result.detail == "dims_ok=True fixed=True independent=False"


def test_a_second_ascending_pass_keeps_only_the_reachable_images():
    # a caller may read every degree and then read them again from
    # degree 0, which clears the window; it holds the highest degree
    # built and the _span degrees below it
    alpha = _oracle_morphisms()["alpha"]
    for _ in range(2):
        for d in range(121):
            alpha.add_rows(d)
            assert len(alpha._window) <= alpha._span + 1, d


def test_the_window_holds_the_degrees_the_highest_was_built_from():
    # degree 60 is built from degrees 60 - _span to 59; asking for any of
    # them, or for 60, again builds nothing
    alpha = _oracle_morphisms()["alpha"]
    held = {d: alpha._images(d) for d in range(61)}
    for d in range(60 - alpha._span, 61):
        assert alpha._images(d) is held[d], d


def test_images_in_random_order_match_full_products():
    """Degrees asked for in a seeded random order, each above or below
    the window, against the full products; the window never holds more
    than _span + 1 degrees."""
    alpha, beta = load_morphisms(["alpha", "beta"], load_algebras())
    product = ProductMorphism(ProductAlgebra([alpha.source, beta.source]), 1, beta)
    walks = [(m, oracle_matrix, m) for m in _oracle_morphisms().values()]
    walks.append((product, oracle_product_matrix, beta))
    rng = random.Random(37)
    for morphism, full, inner in walks:
        for d in rng.choices(range(121), k=40):
            assert morphism.matrix_in_degree(d) == full(morphism, d), d
            assert len(inner._window) <= inner._span + 1, d


_gen_shapes = st.one_of(
    st.tuples(st.sampled_from([2, 4, 6]), st.just("poly")),
    st.tuples(st.sampled_from([1, 3, 5]), st.just("ext")),
)
# up to four mixed generators, or up to six exterior ones, so that images
# carry many exterior terms, each with its own packed clash and flip masks
_shape_lists = st.one_of(
    st.lists(_gen_shapes, max_size=4),
    st.lists(st.tuples(st.sampled_from([1, 3, 5]), st.just("ext")), max_size=6),
)


def _algebra(p, shapes, prefix):
    return GradedAlgebra(p, [(f"{prefix}{i}", deg, kind) for i, (deg, kind) in enumerate(shapes)])


@settings(max_examples=60)
@given(shapes=_shape_lists)
def test_parent_table_lowers_the_last_generator(shapes):
    """Each monomial of positive degree is its parent times its last
    nonzero generator i, the parent sitting at position j one degree of
    generator i below."""
    alg = _algebra(3, shapes, "a")
    assert _parents(alg._signature, 0) == ((), ())
    for d in range(1, 17):
        lasts, positions = _parents(alg._signature, d)
        basis = alg.basis(d)
        assert len(lasts) == len(positions) == len(basis), d
        for mono, i, j in zip(basis, lasts, positions):
            assert mono[i] and not any(mono[i + 1 :]), (d, mono, i)
            parent = alg.basis(d - alg.generators[i].degree)[j]
            assert parent[:i] + (parent[i] + 1,) + parent[i + 1 :] == mono, (d, mono)


def test_the_parent_table_is_read_only_in_degrees_with_monomials():
    """Degree 0 and the degrees with no monomials get their (empty or
    unit) images without a parent-table entry: over degrees 0 to 12 of
    one generator of degree 4, only 4, 8 and 12 have entries; and a
    cohomology pass at degree bound 120, the six criteria that read the
    algebras, makes 559 entries, two of them the p = 5 recursion
    pipeline's second-copy inclusion in degrees 7 and 8."""
    from spinelab import spine, verification

    alg = GradedAlgebra(3, [("x", 4, "poly")])
    _parents.cache_clear()
    for d in range(13):
        assert identity_morphism(alg).matrix_in_degree(d) == [[1]] * (d % 4 == 0)
    assert _parents.cache_info().currsize == 3
    cx = spine.quotient_complex(3, 4)
    _parents.cache_clear()
    for criterion in ("series", "algebra_structure", "wreath", "metacyclic", "recursion"):
        assert getattr(verification, f"criterion_{criterion}")(120).passed, criterion
    assert verification.criterion_corollary(cx, 120).passed
    assert _parents.cache_info().currsize == 559


def _draw_morphism(p, source_shapes, target_shapes, data):
    """A morphism with random images out of one algebra into one algebra,
    or into a product of two."""
    source = _algebra(p, source_shapes, "s")
    parts = [_algebra(p, shapes, f"t{k}_") for k, shapes in enumerate(target_shapes)]
    target = parts[0] if len(parts) == 1 else ProductAlgebra(parts)
    images = {}
    for g in source.generators:
        basis = target.basis(g.degree)
        coeffs = data.draw(
            st.lists(st.integers(0, p - 1), min_size=len(basis), max_size=len(basis))
        )
        images[g.name] = Element(target, dict(zip(basis, coeffs)))
    return AlgebraMorphism(source, target, images)


_morphism_args = dict(
    p=st.sampled_from([3, 5]),
    source_shapes=_shape_lists,
    target_shapes=st.lists(_shape_lists, min_size=1, max_size=2),
    data=st.data(),
)


@settings(max_examples=60)
@given(**_morphism_args)
def test_matrix_in_degree_matches_full_products_property(p, source_shapes, target_shapes, data):
    """Against the full products, into one algebra or into a product of
    two, as the free-module check's subring map goes."""
    morphism = _draw_morphism(p, source_shapes, target_shapes, data)
    for d in list(range(17)) + [16, 3, 12, 0]:
        assert morphism.matrix_in_degree(d) == oracle_matrix(morphism, d), d


@settings(max_examples=60)
@given(**_morphism_args)
def test_rank_in_degree_is_the_oracle_rank_of_the_matrix(p, source_shapes, target_shapes, data):
    """The rank of the images, ranked as they are, against the dense rank
    of the matrix in every degree, into one algebra or into a product."""
    morphism = _draw_morphism(p, source_shapes, target_shapes, data)
    for d in range(17):
        assert morphism.rank_in_degree(d) == oracle.rank(morphism._matrix(d), p), d


@pytest.mark.parametrize("name", ["alpha", "beta", "swap", "witness", "f1 p=3", "f1 p=5"])
def test_rank_in_degree_of_the_shipped_maps(name):
    morphism = _oracle_morphisms()[name]
    p = morphism.target.p
    for d in range(41):
        assert morphism.rank_in_degree(d) == oracle.rank(morphism._matrix(d), p), d


def _packed_positions(alg, d):
    return {alg.pack(m): i for i, m in enumerate(alg.basis(d))}


def test_code_tables_are_the_packed_bases_of_the_fixtures():
    """On every fixture signature and every tensor product of two of them
    (a product of algebras too), the table is ``{pack(m): i}`` and is
    shared by every algebra with the signature."""
    algebras = list(load_algebras().values())
    pairs = [tensor(3, a, b, suffixes=["_a", "_b"]) for a in algebras for b in algebras]
    for alg in algebras + pairs:
        twin = GradedAlgebra(alg.p, [(f"{g.name}_twin", g.degree, g.kind) for g in alg.generators])
        for d in range(61 if alg in pairs else 121):
            assert alg._code_index(d) == _packed_positions(alg, d), (alg, d)
            assert twin._code_index(d) is alg._code_index(d)
    product = ProductAlgebra(algebras[:3])
    for d in range(41):
        assert product._code_index(d) == _packed_positions(product, d), d


@settings(max_examples=60)
@given(
    p=st.sampled_from([3, 5]),
    shapes=_shape_lists,
    parts=st.lists(_shape_lists, min_size=1, max_size=3),
)
def test_code_tables_are_the_packed_bases_property(p, shapes, parts):
    alg = _algebra(p, shapes, "a")
    product = ProductAlgebra([_algebra(p, s, f"c{k}_") for k, s in enumerate(parts)])
    for d in range(25):
        assert alg._code_index(d) == _packed_positions(alg, d), d
        assert _codes(alg._signature, d) is alg._code_index(d)
        assert product._code_index(d) == _packed_positions(product, d), d


def test_pack_refuses_an_exponent_that_overflows_its_slot():
    alg = GradedAlgebra(3, [("c2", 2, "poly"), ("e1", 1, "ext")])
    top = (1 << POLY_SLOT_BITS) - 1
    assert alg.pack((top, 1)) != alg.pack((top, 0))
    for mono in ((top + 1, 0), (0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="does not fit its slot"):
            alg.pack(mono)
    with pytest.raises(ValueError, match="does not fit its slot"):
        ProductAlgebra([alg, alg]).pack((1, (top + 1, 0)))
    # a morphism refuses the first degree whose target exponents overflow,
    # as a matrix and as a rank
    ident = identity_morphism(GradedAlgebra(3, [("c2", 2, "poly")]))
    assert ident.matrix_in_degree(2 * top) == [[1]]
    assert ident.rank_in_degree(2 * top) == 1
    with pytest.raises(ValueError, match="does not fit its slot"):
        ident.matrix_in_degree(2 * top + 2)
    with pytest.raises(ValueError, match="does not fit its slot"):
        ident.rank_in_degree(2 * top + 2)
    product = ProductAlgebra([alg, alg])
    with pytest.raises(ValueError, match="does not fit its slot"):
        product._code_index(2 * top + 2)


@settings(max_examples=60)
@given(
    p=st.sampled_from([3, 5]),
    shapes=st.lists(st.lists(_gen_shapes, max_size=3), min_size=3, max_size=3),
    data=st.data(),
)
def test_product_equalizer_matches_the_oracle_pair_kernel(p, shapes, data):
    """The equalizer of a and b out of A x B against the dense
    cols - rank [a | -b] of their full-product matrices, degree by degree."""
    a_source, b_source, target = (_algebra(p, s, prefix) for s, prefix in zip(shapes, "abt"))

    def random_morphism(source):
        images = {}
        for g in source.generators:
            basis = target.basis(g.degree)
            coeffs = data.draw(
                st.lists(st.integers(0, p - 1), min_size=len(basis), max_size=len(basis))
            )
            images[g.name] = Element(target, dict(zip(basis, coeffs)))
        return AlgebraMorphism(source, target, images)

    a, b = random_morphism(a_source), random_morphism(b_source)
    product = ProductAlgebra([a_source, b_source])
    eq = equalizer(ProductMorphism(product, 0, a), ProductMorphism(product, 1, b), 12)
    for d in range(13):
        cols_a, cols_b = len(a_source.basis(d)), len(b_source.basis(d))
        want = oracle.pair_kernel_dim(oracle_matrix(a, d), oracle_matrix(b, d), cols_a, cols_b, p)
        assert eq[d] == want, d


def _single_term_morphism(source, target, data):
    """A morphism sending each generator to zero or to one monomial with a
    coefficient nonzero mod p."""
    images = {}
    for g in source.generators:
        basis = target.basis(g.degree)
        k = data.draw(st.integers(-1, len(basis) - 1))
        c = data.draw(st.integers(1, target.p - 1))
        images[g.name] = Element(target, {basis[k]: c} if k >= 0 else {})
    morphism = AlgebraMorphism(source, target, images)
    assert morphism.single_term
    return morphism


def _eliminated_kernel(source, pairs, bound):
    """The common kernel's dimensions by elimination, the general path."""
    return tuple(
        len(source.basis(d)) - linalg.rank(_kernel_rows(source, pairs, d).values(), source.p)
        for d in range(bound + 1)
    )


# generators of a few shared degrees, so that images collide and cycles form
_few_degrees = st.lists(
    st.one_of(
        st.tuples(st.sampled_from([2, 4]), st.just("poly")),
        st.tuples(st.sampled_from([1, 3]), st.just("ext")),
    ),
    max_size=4,
)


@settings(max_examples=80)
@given(p=st.sampled_from([3, 5, 7]), shapes=st.lists(_few_degrees, min_size=3, max_size=3), data=st.data())
def test_the_gain_graph_kernel_matches_elimination(p, shapes, data):
    """On single pairs of single-term maps: endomorphisms against the
    identity (None and as a morphism) and against each other, and maps out
    of a product factoring through its two projections; and their ranks
    count the codes they hit."""
    alg, a_source, b_source = (_algebra(p, s, prefix) for s, prefix in zip(shapes, "tab"))
    f, g = _single_term_morphism(alg, alg, data), _single_term_morphism(alg, alg, data)
    a, b = _single_term_morphism(a_source, alg, data), _single_term_morphism(b_source, alg, data)
    product = ProductAlgebra([a_source, b_source])
    fa, gb = ProductMorphism(product, 0, a), ProductMorphism(product, 1, b)
    cases = [
        (alg, [(f, None)]),
        (alg, [(f, identity_morphism(alg))]),
        (alg, [(f, g)]),
        (alg, [(f, f)]),
        (product, [(fa, gb)]),
        (product, [(fa, ProductMorphism(product, 0, a))]),
    ]
    for source, pairs in cases:
        assert _common_kernel(source, pairs, 12).dims == _eliminated_kernel(source, pairs, 12)
    for morphism in (f, a, fa):
        for d in range(13):
            assert morphism.rank_in_degree(d) == oracle.rank(morphism._matrix(d), p), d


def test_basis_matches_recursive_enumeration():
    for alg in load_algebras().values():
        for d in range(121):
            assert alg.basis(d) == oracle_basis(alg, d), (alg, d)


@settings(max_examples=60)
@given(
    p=st.sampled_from([3, 5]),
    shapes=st.one_of(
        st.lists(_gen_shapes, max_size=4),
        st.lists(st.tuples(st.sampled_from([1, 3, 5, 7]), st.just("ext")), max_size=4),
    ),
)
def test_basis_matches_recursive_enumeration_property(p, shapes):
    alg = _algebra(p, shapes, "a")
    twin = _algebra(p, shapes, "b")
    for d in range(61):
        assert alg.basis(d) == oracle_basis(alg, d), d
        assert twin.basis(d) is alg.basis(d)
        assert alg._basis_index(d) == {m: i for i, m in enumerate(alg.basis(d))}


def test_free_module_negative_cases(setup):
    _, _, _, source, f, g = setup
    eq = equalizer(f, g, 40)
    r4, r8, s3, one, t7, t7t, t8 = _structure_elements(source)
    ring = [r4, r8, s3]
    assert verify_free_module(eq, f, g, ring, [one, t7, t7t, t8], 40)
    assert not verify_free_module(eq, f, g, ring, [one, t7, t7t], 40)
    assert not verify_free_module(eq, f, g, ring, [one, t7, t7, t7t, t8], 40)
    x4 = source.embed(0, parse_element(source.components[0], "x4"))
    with pytest.raises(ValueError, match="not equalized"):
        verify_free_module(eq, f, g, ring, [one, t7, t7t, t8, x4], 40)
