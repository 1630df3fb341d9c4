"""End-to-end checks tying the census, algebra and assembly together.

Each criterion function returns a CriterionResult; `run_all` executes the
suite selected by the configuration.  The CLI and the acceptance tests
both run these, so a criterion is implemented exactly once.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from math import factorial, prod

from spinelab import catalog, linalg
from spinelab.algebra import (
    AlgebraMorphism,
    Element,
    GradedAlgebra,
    cohomology_of_metacyclic,
    compose_morphisms,
    dimensions,
    equalizer,
    invariants,
    parse_element,
    product_pair,
    swap_action,
    verify_free_module,
)
from spinelab.assembly import corollary_dims, theorem_pipeline
from spinelab.equivariant import (
    ZpGraph,
    classify_reduced,
    equivariant_expansions,
    nielsen_closure,
    nielsen_moves_for_group,
)
from spinelab.fixtures import load_algebras, load_expected_tables, load_morphisms, load_thm_input
from spinelab.graphs import collapse, enumerate_forests, rank
from spinelab.series import closed_form, series_equal
from spinelab.spine import (
    _forest_orbit,
    check_d_squared,
    expected_tables,
    graph_rows,
    quotient_complex,
    reduced_homology,
    table_problems,
    verify_expected_tables,
)
from spinelab.symmetry import (
    GraphAutomorphism,
    _row_reader,
    apply_to_graph,
    bundle_names,
    bundle_perms,
    canonical_form,
    compose,
    matrix_form,
    power,
    vertex_group_order,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str = ""


# the seed of the dart-level relabellings of ``criterion_properties``
PROPERTY_SEED = 20240901


@dataclass
class RunConfig:
    p: int = 3
    max_degree: int = 40

    def __post_init__(self):
        linalg.check_odd_prime(self.p)
        if self.max_degree < 10:
            raise ValueError("max_degree must be >= 10")


def _alpha_beta():
    alpha, beta = load_morphisms(["alpha", "beta"])
    return (alpha, beta, *product_pair(alpha, beta))


def _alpha_beta_equalizer(bound):
    """(source, f, g, equalizer(f, g, bound)) for the alpha/beta pair: the
    equalizer dimensions that ``criterion_series`` and
    ``criterion_algebra_structure`` read; ``run_all`` computes them once
    for both."""
    _, _, source, f, g = _alpha_beta()
    return source, f, g, equalizer(f, g, bound)


# ---------------------------------------------------------------------------
# the criteria


def criterion_census(cx) -> CriterionResult:
    want = expected_tables(load_expected_tables())
    ok = len(cx.classes) == 17 and not table_problems({"graphs": graph_rows(cx)}, want)
    return CriterionResult("census-17-classes", ok, f"{len(cx.classes)} classes")


def criterion_cells(cx) -> CriterionResult:
    problems = verify_expected_tables(cx, load_expected_tables())
    counts = [len(cx.cells_of_dim(d)) for d in (1, 2, 3)]
    dup = [
        c
        for c in cx.cells_of_dim(1)
        if set(cx.cell_vertex_names(c)) == {"Theta2:Theta1", "Theta2^{0,2}"}
    ]
    three_ok = all(c.isotropy_order == 6 for c in cx.cells_of_dim(3))
    ok = not problems and counts == [24, 13, 3] and len(dup) == 2 and three_ok
    detail = f"cells {counts}, duplicated pair x{len(dup)}"
    if problems:
        detail += "; " + "; ".join(problems)
    return CriterionResult("cells-tables", ok, detail)


def criterion_components(cx) -> CriterionResult:
    counts = sorted(cx.component_vertex_counts())
    rose = cx.component_containing("R4")
    cells = [c.index for c in cx.cells if cx.component_of[c.index] == rose]
    homology = reduced_homology(cx, cells)
    ok = cx.component_count == 3 and counts == [1, 7, 9] and not any(homology)
    return CriterionResult(
        "components", ok, f"counts {counts}, rose reduced homology {homology}"
    )


def criterion_series(bound, equalized=None) -> CriterionResult:
    _, _, _, eq = equalized or _alpha_beta_equalizer(bound)
    chi = closed_form("equalizer")
    series_ok = eq.dims == chi.coefficients(bound)
    lhs = chi + closed_form("sigma3")
    rhs = closed_form("sigma3+equalizer")
    euler_ok = lhs.same_function(rhs) and series_equal(lhs, rhs, bound)
    return CriterionResult(
        "equalizer-series", series_ok and euler_ok, f"dims<=8 {eq.dims[:9]}"
    )


def _structure_elements(source):
    hk, hw = source.components
    e = lambda alg, s: parse_element(alg, s)
    r4 = source.pair(e(hk, "x4"), e(hw, "2*y4"))
    r8 = source.pair(e(hk, "x8"), e(hw, "y4^2 + y8"))
    s3 = source.pair(e(hk, "u3"), e(hw, "2*v3"))
    one = Element.one(source)
    t7 = source.embed(1, e(hw, "v7"))
    t7_tilde = source.pair(e(hk, "u7"), e(hw, "y4*v3"))
    t8 = source.embed(1, e(hw, "y8"))
    return r4, r8, s3, one, t7, t7_tilde, t8


def criterion_algebra_structure(bound, equalized=None) -> CriterionResult:
    source, f, g, eq = equalized or _alpha_beta_equalizer(bound)
    r4, r8, s3, one, t7, t7t, t8 = _structure_elements(source)
    free = verify_free_module(eq, f, g, [r4, r8, s3], [one, t7, t7t, t8], bound)
    zero = Element.zero(source)
    relations = [
        t7 * t7 == zero,
        t7t * t7t == zero,
        t8 * t8 == (r8 - r4 * r4) * t8,
        t7t * t7 == r4 * s3 * t7,
        t8 * t7 == (r8 - r4 * r4) * t7,
        t8 * t7t == r4 * s3 * t8,
    ]
    ok = free and all(relations)
    return CriterionResult(
        "free-module-and-relations", ok, f"free={free}, relations={relations}"
    )


def criterion_corollary(cx, bound) -> CriterionResult:
    out = corollary_dims(cx, bound)
    sigma = closed_form("sigma3").coefficients(bound)
    chi = closed_form("equalizer").coefficients(bound)
    ok = all(
        out["total"][d] == 2 * sigma[d] + chi[d] for d in range(6, bound + 1)
    )
    return CriterionResult("corollary-sum", ok, f"total<=10 {out['total'].dims[:11]}")


# the presentation c4, c8, d3, d7 of the wreath coefficients, as elements
# of double_sigma3, and the swap's eigen-coordinates there: the sums and
# differences of the swapped pairs
WREATH_WITNESS = {
    "c4": "c41 + c42",
    "c8": "(c41 - c42)^2",
    "d3": "d31 + d32",
    "d7": "(c41 - c42)*(d31 - d32)",
}
SWAP_EIGEN = {"c41": "c41 + c42", "c42": "c41 - c42", "d31": "d31 + d32", "d32": "d31 - d32"}


def _wreath_maps(big, wreath) -> tuple:
    """The witness W: wreath -> big and the endomorphism phi of big, each
    stated on generators by ``WREATH_WITNESS`` and ``SWAP_EIGEN``."""
    def stated(source, texts):
        return AlgebraMorphism(source, big, {n: parse_element(big, t) for n, t in texts.items()})

    return stated(wreath, WREATH_WITNESS), stated(big, SWAP_EIGEN)


def criterion_wreath(bound) -> CriterionResult:
    """H*(Sigma3 wr Z/2; F_3) is the swap invariants of double_sigma3: their
    dimensions agree through the bound, the swap fixes the witness W's
    images, and W injects, so the presentation is algebraically
    independent there.

    W's images are sums, and ranking them would eliminate.  So W is
    ranked in the coordinates that diagonalise the swap: phi sends c41 to
    c41 + c42, c42 to c41 - c42, and d31, d32 alike.  On the generators
    phi(phi(x)) = 2x, so phi(phi(m)) = 2^k m for a monomial m of k
    factors: phi is an automorphism over F_3, and rank(phi W) = rank(W)
    in every degree.  phi W sends c4, c8, d3, d7 to 2c41, c42^2, 2d31 and
    c42 d32, so its rank counts the codes its images hit.  A phi that
    fails the check on the generators makes the criterion report no
    independence, and ``rank_in_degree`` eliminates when an image has two
    terms, so the rank is exact whatever phi W's images are.
    """
    algebras = load_algebras()
    big, wreath = algebras["double_sigma3"], algebras["wreath"]
    swap = swap_action(big, [("c41", "c42"), ("d31", "d32")])
    inv = invariants(big, [swap], bound)
    dims_ok = inv == dimensions(wreath, bound)
    witness, phi = _wreath_maps(big, wreath)
    fixed = all(swap.apply(x) == x for x in witness.images.values())
    square = compose_morphisms(phi, phi).images
    invertible = all(square[g.name] == 2 * big.generator_element(g.name) for g in big.generators)
    # algebraic independence through the bound: the presentation injects
    eigen = compose_morphisms(phi, witness)
    inject = invertible and all(
        eigen.rank_in_degree(d) == len(wreath.basis(d)) for d in range(bound + 1)
    )
    ok = dims_ok and fixed and inject
    return CriterionResult(
        "wreath-invariants", ok, f"dims_ok={dims_ok} fixed={fixed} independent={inject}"
    )


def _fold(name: str, checks, sep: str = "; ") -> CriterionResult:
    """One criterion from its per-prime (passed, detail) pairs."""
    checks = list(checks)
    return CriterionResult(name, all(ok for ok, _ in checks), sep.join(d for _, d in checks))


def _classification_at(q: int, classes: list) -> tuple:
    """At an odd prime q >= 5 the reduced classes of rank 2(q - 1) are the
    (q + 5)/2 classes of the rose, the thetas with s + t = q - 1 loops
    (s <= t) and the diagonal wedge, none of them vertex-free."""
    family = [catalog.rose_rotation(q, 2 * (q - 1)), catalog.wedge_diagonal(q)]
    family += [catalog.theta_rotation(q, s, q - 1 - s) for s in range((q + 1) // 2)]
    matched = sorted(z.key for z in classes) == sorted(ZpGraph(g, a, q).key for g, a in family)
    ok = matched and all(z.fixed_vertex_count() > 0 for z in classes)
    return ok, f"p={q}: {len(classes)}"


def criterion_classification(primes=(5, 7), reduced=None) -> CriterionResult:
    reduced = reduced or {q: classify_reduced(q) for q in primes}
    checks = (_classification_at(q, reduced[q]) for q in primes)
    return _fold("reduced-classification", checks, sep=", ")


def _nielsen_at(q: int, classes: list) -> tuple:
    closures = [nielsen_closure(z) for z in classes]
    singletons = all(len(c) == 1 for c in closures)
    keys = [z.key for c in closures for z in c]
    disjoint = len(set(keys)) == len(keys)
    g, left, right = catalog.wedge_rotations(q)
    group = {compose(power(left, i), power(right, j)) for i in range(q) for j in range(q)}
    moves = nielsen_moves_for_group(g, sorted(group))
    ok = singletons and disjoint and not moves
    return ok, f"singletons={singletons} disjoint={disjoint} rank2-moves={len(moves)}"


def criterion_nielsen(primes=(5,), reduced=None) -> CriterionResult:
    reduced = reduced or {q: classify_reduced(q) for q in primes}
    return _fold("nielsen-closures", (_nielsen_at(q, reduced[q]) for q in primes))


def _expansions_at(q: int) -> tuple:
    budget = 3 * 2 * (q - 1) - 3
    wedge = ZpGraph(*catalog.wedge_diagonal(q), q)
    expansions = equivariant_expansions(wedge, budget)
    bip = ZpGraph(*catalog.bipartite_block_rotation(q), q)
    unique = len(expansions) == 1
    matches = star = False
    if unique:
        (blown, forest), = expansions
        matches = blown.key == bip.key
        ends = [set(blown.graph.edge_endpoints(e)) for e in forest]
        star = len(forest) == q and bool(set.intersection(*ends))
    none_further = not equivariant_expansions(bip, budget)
    ok = unique and matches and star and none_further
    return ok, f"p={q}: unique={unique} star={star} terminal={none_further}"


def criterion_expansions(primes=(3, 5)) -> CriterionResult:
    return _fold("expansions", map(_expansions_at, primes))


def _metacyclic_at(q: int, bound: int) -> tuple:
    alg = cohomology_of_metacyclic(q, q - 1)
    degrees = sorted(g.degree for g in alg.generators)
    series_ok = dimensions(alg, bound).dims == closed_form("metacyclic", q).coefficients(bound)
    return degrees == [2 * q - 3, 2 * q - 2] and series_ok, f"p={q}: degrees={degrees}"


def criterion_metacyclic(bound, primes=(3, 5, 7)) -> CriterionResult:
    return _fold("metacyclic-cohomology", (_metacyclic_at(q, bound) for q in primes))


def criterion_recursion(bound) -> CriterionResult:
    alg3, images3 = load_thm_input(3)
    rep3 = theorem_pipeline(3, alg3, images3, bound)
    degenerate_ok = rep3.identity_holds and rep3.eq_dims.dims == rep3.invariant_dims.dims

    synth = GradedAlgebra(5, [("u7", 7, "ext"), ("c8", 8, "poly"), ("e15", 15, "ext")])
    rep5 = theorem_pipeline(5, synth, {"u7": "u7", "c8": "c8", "e15": "0"}, bound)
    ok = degenerate_ok and rep5.identity_holds
    return CriterionResult(
        "recursion-pipeline", ok, f"p3 degenerate={degenerate_ok}, p5 synthetic={rep5.identity_holds}"
    )


def relabelling_check(g) -> tuple:
    """``(ok, distinct)``: search every distinct vertex relabelling
    P M Pᵀ of g's multiplicity matrix M once; ``distinct`` counts them.
    They are the closure of M under the n - 1 adjacent transpositions of
    the n vertices, which generate every permutation, found breadth first
    with n - 1 matrices built for each.  ``ok`` says that each search
    gives g's canonical form, and that ``distinct`` times the order of the
    vertex group, read off the stabilizer chain of g's own search, is n!,
    as orbit and stabilizer of M must be."""
    n = g.vertex_count
    swaps = [(*range(i), i + 1, i, *range(i + 2, n)) for i in range(n - 1)]
    found = [g.multiplicity]
    seen = set(found)
    for matrix in found:
        for swap in swaps:
            moved = _permuted(matrix, swap)
            if moved not in seen:
                seen.add(moved)
                found.append(moved)
    base = canonical_form(g)
    forms_ok = all(matrix_form(m) == base for m in found)
    return forms_ok and len(found) * vertex_group_order(base) == factorial(n), len(found)


def _permuted(matrix, order) -> tuple:
    """The matrix whose entry (i, j) is ``matrix[order[i]][order[j]]``."""
    read = _row_reader(order)
    return tuple(read(matrix[u]) for u in order)


def _dart_relabelling(g, rng) -> GraphAutomorphism:
    """A seeded random relabelling of g's vertices, edges and edge ends."""
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
    return GraphAutomorphism(tuple(vperm), tuple(hperm))


def forest_orbit_check(cls, forest_count: int) -> bool:
    """Orbits of the vertex group on the nonempty bundle forests of a
    class (forests of the least edge of each bundle): each orbit's size
    times its stabilizer's order is the group's order, and counting Π m_b
    edge choices over the bundles b of each member gives ``forest_count``,
    the number of nonempty forests of the graph, counted without them."""
    g = cls.graph
    names = bundle_names(g)
    sizes = Counter(names)
    group = list(zip(cls.vertex_group, bundle_perms(g, cls.vertex_group, names)))
    seen: set = set()
    ok, counted = True, 0
    for sub in enumerate_forests(g, set(names)):
        if sub and sub not in seen:
            orbit, fixing = _forest_orbit(group, sub)
            seen.update(orbit)
            ok &= len(orbit) * len(fixing) == len(group)
            counted += len(orbit) * prod(sizes[b] for b in sub)
    return ok and counted == forest_count


def criterion_properties(cx) -> CriterionResult:
    """Four property suites over the classes of the complex.

    rank: collapsing any forest keeps the rank.  canonical: the canonical
    form is a relabelling invariant.  Each distinct vertex relabelling of
    a class's multiplicity matrix is searched once (``relabelling_check``),
    and 100 seeded dart-level relabellings per class, moving vertices,
    edges and edge ends, each have the class's matrix permuted by their
    own vertex map.  A graph's form is the search of its matrix, so every
    such relabelling has the class's form without a search of its own.
    orbit-stabilizer: ``forest_orbit_check``.  d2: the cells' boundary
    squares to zero (``check_d_squared``).
    """
    rng = random.Random(PROPERTY_SEED)
    rank_ok = canon_ok = orbit_ok = True
    for cls in cx.classes:
        g = cls.graph
        forests = enumerate_forests(g)
        n = rank(g)
        rank_ok &= all(rank(collapse(g, f)) == n for f in forests)

        moves = [_dart_relabelling(g, rng) for _ in range(100)]
        moved = [apply_to_graph(g, a).multiplicity for a in moves]
        moved_ok = all(_permuted(m, a.vperm) == g.multiplicity for m, a in zip(moved, moves))
        canon_ok &= relabelling_check(g)[0] and moved_ok

        orbit_ok &= forest_orbit_check(cls, len(forests) - 1)

    d2_ok = check_d_squared(cx)
    ok = rank_ok and canon_ok and orbit_ok and d2_ok
    return CriterionResult(
        "property-suites",
        ok,
        f"rank={rank_ok} canonical={canon_ok} orbit-stabilizer={orbit_ok} d2={d2_ok}",
    )


# ---------------------------------------------------------------------------
# suites


def run_all(config: RunConfig) -> list:
    """All thirteen criteria at p = 3; at an odd prime q >= 5, the four whose
    statement holds at every odd prime, checked at q."""
    bound = config.max_degree
    if config.p != 3:
        q = (config.p,)
        reduced = {config.p: classify_reduced(config.p)}
        return [
            criterion_classification(q, reduced),
            criterion_nielsen(q, reduced),
            criterion_expansions(q),
            criterion_metacyclic(bound, q),
        ]
    cx = quotient_complex(3, 4)
    reduced = {q: classify_reduced(q) for q in (5, 7)}
    equalized = _alpha_beta_equalizer(bound)
    return [
        criterion_census(cx),
        criterion_cells(cx),
        criterion_components(cx),
        criterion_series(bound, equalized),
        criterion_algebra_structure(bound, equalized),
        criterion_corollary(cx, bound),
        criterion_wreath(bound),
        criterion_classification(reduced=reduced),
        criterion_nielsen(reduced=reduced),
        criterion_expansions(),
        criterion_metacyclic(bound),
        criterion_recursion(bound),
        criterion_properties(cx),
    ]
