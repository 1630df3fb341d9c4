"""End-to-end checks tying the census, algebra and assembly together.

Each criterion function returns a CriterionResult; `run_all` executes the
suite selected by the configuration.  The CLI and the acceptance tests
both run these, so a criterion is implemented exactly once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from spinelab import catalog, linalg
from spinelab.algebra import (
    AlgebraMorphism,
    Element,
    GradedAlgebra,
    ProductAlgebra,
    ProductMorphism,
    cohomology_of_metacyclic,
    dimensions,
    equalizer,
    invariants,
    parse_element,
    swap_action,
    verify_free_module,
)
from spinelab.assembly import (
    build_e1,
    check_d_squared,
    constant_rule,
    corollary_dims,
    theorem_pipeline,
)
from spinelab.equivariant import (
    ZpGraph,
    classify_reduced,
    equivariant_expansions,
    nielsen_closure,
    nielsen_moves_for_group,
)
from spinelab.fixtures import (
    load_algebra,
    load_algebras,
    load_expected_tables,
    load_morphism,
    load_thm_input,
)
from spinelab.graphs import collapse, enumerate_forests, rank
from spinelab.series import closed_form, series_equal
from spinelab.spine import (
    expected_tables,
    graph_rows,
    quotient_complex,
    reduced_homology,
    table_problems,
    verify_expected_tables,
)
from spinelab.symmetry import (
    GraphAutomorphism,
    apply_to_graph,
    canonical_form,
    compose,
    identity_automorphism,
    orbits,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class RunConfig:
    p: int = 3
    max_degree: int = 40
    seed: int = 20240901

    def __post_init__(self):
        linalg.check_odd_prime(self.p)
        if self.max_degree < 10:
            raise ValueError("max_degree must be >= 10")


def _alpha_beta():
    algebras = load_algebras()
    alpha = load_morphism("alpha", algebras)
    beta = load_morphism("beta", algebras)
    source = ProductAlgebra([alpha.source, beta.source])
    f = ProductMorphism(source, 0, alpha)
    g = ProductMorphism(source, 1, beta)
    return alpha, beta, source, f, g


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


def criterion_series(bound) -> CriterionResult:
    _, _, _, f, g = _alpha_beta()
    eq = equalizer(f, g, bound)
    chi = closed_form("equalizer")
    series_ok = eq.dims.dims == chi.coefficients(bound)
    lhs = chi + closed_form("sigma3")
    rhs = closed_form("sigma3+equalizer")
    euler_ok = lhs.same_function(rhs) and series_equal(lhs, rhs, bound)
    return CriterionResult(
        "equalizer-series", series_ok and euler_ok, f"dims<=8 {eq.dims.dims[:9]}"
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


def criterion_algebra_structure(bound) -> CriterionResult:
    _, _, source, f, g = _alpha_beta()
    eq = equalizer(f, g, bound)
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


def criterion_wreath(bound) -> CriterionResult:
    big = load_algebra("double_sigma3")
    wreath = load_algebra("wreath")
    swap = swap_action(big, [("c41", "c42"), ("d31", "d32")])
    inv = invariants(big, [swap], bound)
    dims_ok = inv.dims.dims == dimensions(wreath, bound).dims
    c4 = parse_element(big, "c41 + c42")
    c8 = parse_element(big, "(c41 - c42)^2")
    d3 = parse_element(big, "d31 + d32")
    d7 = parse_element(big, "(c41 - c42)*(d31 - d32)")
    fixed = all(swap.apply(x) == x for x in (c4, c8, d3, d7))
    # algebraic independence through the bound: the presentation injects
    witness = AlgebraMorphism(wreath, big, {"c4": c4, "c8": c8, "d3": d3, "d7": d7})
    inject = all(
        linalg.rank(witness.matrix_in_degree(d), 3) == len(wreath.basis(d))
        for d in range(bound + 1)
    )
    ok = dims_ok and fixed and inject
    return CriterionResult(
        "wreath-invariants", ok, f"dims_ok={dims_ok} fixed={fixed} independent={inject}"
    )


def criterion_classification() -> CriterionResult:
    five = classify_reduced(5)
    seven = classify_reduced(7)
    expected5 = [ZpGraph(*catalog.rose_rotation(5, 8), 5)]
    for s in (0, 1, 2):
        expected5.append(ZpGraph(*catalog.theta_rotation(5, s, 4 - s), 5))
    expected5.append(ZpGraph(*catalog.wedge_diagonal(5), 5))
    matched = all(sum(1 for c in five if c.key == w.key) == 1 for w in expected5)
    no_vertex_free = all(
        z.fixed_vertex_count() > 0 for z in five
    ) and all(z.fixed_vertex_count() > 0 for z in seven)
    ok = len(five) == 5 and len(seven) == 6 and matched and no_vertex_free
    return CriterionResult(
        "reduced-classification", ok, f"p=5: {len(five)}, p=7: {len(seven)}"
    )


def criterion_nielsen() -> CriterionResult:
    classes = classify_reduced(5)
    closures = [nielsen_closure(z) for z in classes]
    singletons = all(len(c) == 1 for c in closures)
    keys = [{z.key for z in c} for c in closures]
    disjoint = not any(keys[i] & keys[j] for i in range(len(keys)) for j in range(i))
    g, left, right = catalog.wedge_rotations(5)
    group = {identity_automorphism(g)}
    frontier = list(group)
    while frontier:
        x = frontier.pop()
        for gen in (left, right):
            y = compose(gen, x)
            if y not in group:
                group.add(y)
                frontier.append(y)
    moves = nielsen_moves_for_group(g, sorted(group))
    ok = singletons and disjoint and not moves
    return CriterionResult(
        "nielsen-closures",
        ok,
        f"singletons={singletons} disjoint={disjoint} rank2-moves={len(moves)}",
    )


def criterion_expansions() -> CriterionResult:
    details = []
    ok = True
    for p in (3, 5):
        budget = 3 * 2 * (p - 1) - 3
        wedge = ZpGraph(*catalog.wedge_diagonal(p), p)
        expansions = equivariant_expansions(wedge, budget)
        bip = ZpGraph(*catalog.bipartite_block_rotation(p), p)
        unique = len(expansions) == 1
        matches = unique and expansions[0][0].key == bip.key
        star = False
        if unique:
            forest = expansions[0][1]
            ends = [expansions[0][0].graph.edge_endpoints(e) for e in forest]
            common = set(ends[0])
            for u, v in ends[1:]:
                common &= {u, v}
            star = len(forest) == p and bool(common)
        none_further = not equivariant_expansions(bip, budget)
        ok = ok and unique and matches and star and none_further
        details.append(f"p={p}: unique={unique} star={star} terminal={none_further}")
    return CriterionResult("expansions", ok, "; ".join(details))


def criterion_metacyclic(bound) -> CriterionResult:
    details = []
    ok = True
    for p in (3, 5, 7):
        alg = cohomology_of_metacyclic(p, p - 1)
        degrees = sorted(g.degree for g in alg.generators)
        want = [2 * p - 3, 2 * p - 2]
        series = closed_form("metacyclic", p)
        series_ok = dimensions(alg, bound).dims == series.coefficients(bound)
        ok = ok and degrees == want and series_ok
        details.append(f"p={p}: degrees={degrees}")
    return CriterionResult("metacyclic-cohomology", ok, "; ".join(details))


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


def criterion_properties(cx, bound, seed) -> CriterionResult:
    rng = random.Random(seed)
    rank_ok = True
    for cls in cx.classes:
        n = rank(cls.graph)
        for forest in enumerate_forests(cls.graph):
            if rank(collapse(cls.graph, forest)) != n:
                rank_ok = False

    canon_ok = True
    for cls in cx.classes:
        g = cls.graph
        base = canonical_form(g)
        for _ in range(100):
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
            moved = apply_to_graph(g, GraphAutomorphism(tuple(vperm), tuple(hperm)))
            if canonical_form(moved) != base:
                canon_ok = False

    orbit_ok = True
    for cls in cx.classes:
        eperms = cls.aut.edge_perms()
        lookup = {a: ep for a, ep in zip(cls.aut.elements, eperms)}
        action = lambda a, f: frozenset(lookup[a][e] for e in f)
        for orb in orbits(cls.aut, [f for f in enumerate_forests(cls.graph) if f], action):
            if len(orb.members) * orb.stabilizer_order != cls.aut.order:
                orbit_ok = False

    page = build_e1(cx, constant_rule(cx, bound, load_algebra("sigma3")))
    d2_ok = check_d_squared(page)
    ok = rank_ok and canon_ok and orbit_ok and d2_ok
    return CriterionResult(
        "property-suites",
        ok,
        f"rank={rank_ok} canonical={canon_ok} orbit-stabilizer={orbit_ok} d2={d2_ok}",
    )


# ---------------------------------------------------------------------------
# suites


def run_all(config: RunConfig) -> list:
    """The verification suite selected by the configuration."""
    results = []
    if config.p == 3:
        cx = quotient_complex(3, 4)
        results.append(criterion_census(cx))
        results.append(criterion_cells(cx))
        results.append(criterion_components(cx))
        results.append(criterion_series(config.max_degree))
        results.append(criterion_algebra_structure(config.max_degree))
        results.append(criterion_corollary(cx, config.max_degree))
        results.append(criterion_wreath(config.max_degree))
        results.append(criterion_classification())
        results.append(criterion_nielsen())
        results.append(criterion_expansions())
        results.append(criterion_metacyclic(config.max_degree))
        results.append(criterion_recursion(config.max_degree))
        results.append(criterion_properties(cx, config.max_degree, config.seed))
    else:
        results.append(criterion_classification())
        results.append(criterion_nielsen())
        results.append(criterion_expansions())
        results.append(criterion_metacyclic(config.max_degree))
        results.append(criterion_recursion(config.max_degree))
    return results
