"""Isotropy pages over the quotient complex and cohomology assembly.

Each cell of the quotient carries the cohomology of its stabilizer as a
graded coefficient; faces induce restriction maps.  The coefficient rule
is configuration data: cells whose stabilizer has Sylow-p part of order p
share a fixed graded model with identity faces, while the two big vertex
groups and the special edge joining them carry explicit algebras, and the
edge's two faces the restriction morphisms alpha and beta.

Each component without the special edge is read off one page, that of
its face-closed cell list (Brown's equivariant spectral sequence,
*Cohomology of Groups*, VII.7).  Its faces are all identities, so each
differential is the cellular coboundary tensored with the identity of
each degree: the page keeps it once, as the cells' ``signed_faces`` rows,
and ranks it once per dims class rather than once per degree.

The component holding the special edge is first checked to retract onto
it: everything outside the open edge is an acyclic identity region.  Its
answer is then that of the segment, two vertices and the edge, which is
the amalgam's Mayer-Vietoris sequence: H^0 = ker [alpha, -beta], the
alpha/beta equalizer, given that H^1 = coker [alpha, -beta] vanishes,
which the segment checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from spinelab import catalog, linalg
from spinelab.algebra import (
    AlgebraMorphism,
    GradedAlgebra,
    cohomology_of_metacyclic,
    compose_morphisms,
    dimensions,
    equalizer,
    invariants,
    parse_element,
    product_pair,
    swap_action,
    tensor,
)
from spinelab.fixtures import load_algebras, load_coefficient_rule, load_morphisms
from spinelab.series import GradedDims
from spinelab.spine import QuotientComplex, _components, reduced_homology, signed_faces
from spinelab.symmetry import sylow_p_order


class CoefficientRuleError(RuntimeError):
    pass


class ConcentrationError(RuntimeError):
    """Higher page entries survive where the computation assumes none."""


@dataclass
class CoefficientRule:
    """Assignment of graded dims to cells and maps to faces.

    ``cell_dims[i]`` is the dims vector of cell i; a face is an identity
    unless ``special_faces`` holds its restriction morphism.
    """

    bound: int
    cell_dims: dict
    special_faces: dict  # (cell index, omission position) -> AlgebraMorphism


def sylow_rule(cx: QuotientComplex, bound: int) -> CoefficientRule:
    """The shipped coefficient rule for the p = 3 rank-4 complex.

    Stabilizers with Sylow-3 order 3 all carry the same model with
    identity faces.  The special edge, the 1-cell whose vertices are the
    endpoints of the configuration's critical edge, carries the edge
    algebra, its two vertices their own algebras, and its two faces the
    restriction morphisms: the rule's special faces are its faces.  No
    other function reads the critical edge.
    """
    cfg = load_coefficient_rule()
    algebras = load_algebras()
    base = algebras[cfg["by_sylow_order"]["3"]]
    big = algebras[cfg["by_sylow_order"]["9"]]
    base_dims = dimensions(base, bound).dims
    big_dims = dimensions(big, bound).dims

    cell_dims = {}
    for cell in cx.cells:
        s = sylow_p_order(cell.isotropy_order, cx.p)
        if s == cx.p:
            cell_dims[cell.index] = base_dims
        elif s == cx.p**2:
            cell_dims[cell.index] = big_dims
        else:
            raise CoefficientRuleError(
                f"no coefficient model for Sylow order {s} on cell {cell.index}"
            )

    edge_cfg = cfg["critical_edge"]
    vertex_algebra = {name: algebras[key] for name, key in edge_cfg["vertex_algebras"].items()}
    keys = edge_cfg["restrictions"]  # vertex name -> morphism fixture
    restriction = dict(zip(keys, load_morphisms(list(keys.values()), algebras)))
    edge_dims = dimensions(algebras[edge_cfg["edge_algebra"]], bound).dims
    endpoints = set(edge_cfg["endpoints"])
    special = {}
    for cell in cx.cells_of_dim(1):
        names = cx.cell_vertex_names(cell)  # [collapsed, top]
        if set(names) != endpoints:
            continue
        cell_dims[cell.index] = edge_dims
        for position, name in ((0, names[1]), (1, names[0])):
            # omitting vertex 0 leaves the top endpoint, omitting 1
            # leaves the collapsed one
            special[(cell.index, position)] = restriction[name]
            cell_dims[cell.faces[position]] = dimensions(vertex_algebra[name], bound).dims
    return CoefficientRule(bound, cell_dims, special)


def constant_rule(cx: QuotientComplex, bound: int, model: GradedAlgebra) -> CoefficientRule:
    dims = dimensions(model, bound).dims
    return CoefficientRule(bound, {c.index: dims for c in cx.cells}, {})


@dataclass
class E1Page:
    """Cochain complex of graded vector spaces over the cell structure.

    Every face is an identity face, so the differential out of column s
    is the cellular coboundary tensored with the identity of each degree:
    ``incidences[s]`` holds each (s+1)-cell's ``signed_faces`` row, the
    same in every degree.
    """

    p: int
    bound: int
    cells_by_dim: dict  # s -> ordered cell indices
    dims: dict  # cell index -> dims vector
    incidences: dict  # s -> {(s+1)-cell: {s-cell: sign}}


def build_e1(cx: QuotientComplex, rule: CoefficientRule, cells) -> E1Page:
    """Assemble the page of a face-closed list of cell indices.

    The coboundary into a cell of dimension s+1 is the alternating sum of
    its faces, each an identity that requires equal dims on both sides in
    every degree; it is stored once, as the cells' ``signed_faces`` rows.
    A cell with a special face is refused: its restriction is no identity.
    """
    chosen = set(cells)
    for ci in chosen:
        if not chosen.issuperset(cx.cells[ci].faces):
            raise CoefficientRuleError("cell list is not closed under faces")
        if ci not in rule.cell_dims:
            raise CoefficientRuleError(f"cell {ci} is not covered by the rule")
    special = sorted(chosen.intersection(ci for ci, _ in rule.special_faces))
    if special:
        raise CoefficientRuleError(f"cell {special[0]} has a special face; a page has identity faces only")
    cells_by_dim: dict = {}
    for ci in sorted(chosen):
        cells_by_dim.setdefault(cx.cells[ci].dim, []).append(ci)
    dims = {ci: rule.cell_dims[ci] for ci in chosen}

    incidences = {}
    for s in sorted(cells_by_dim):
        if s + 1 in cells_by_dim:
            _check_identity_dims(cx, cells_by_dim[s + 1], dims, rule.bound)
            incidences[s] = {ci: signed_faces(cx.cells[ci]) for ci in cells_by_dim[s + 1]}
    return E1Page(cx.p, rule.bound, cells_by_dim, dims, incidences)


def _check_identity_dims(cx, cells, dims, bound) -> None:
    """Raise at the first degree, then cell of ``cells`` and face in page
    order, where a face joins cells of different dims."""
    unequal = [(ci, face) for ci in cells for face in cx.cells[ci].faces if dims[face] != dims[ci]]
    for q in range(bound + 1):
        for ci, face in unequal:
            if dims[face][q] != dims[ci][q]:
                raise CoefficientRuleError(
                    f"identity face of cell {ci} has mismatched dims "
                    f"({dims[face][q]} vs {dims[ci][q]}) in degree {q}"
                )


def check_d_squared(page: E1Page) -> bool:
    """Whether d^2 = 0: each composite of two consecutive coboundaries vanishes.

    Two incidences are composed once, cell by cell: the composite in
    degree q is theirs tensored with the identity, so it matters on the
    (s+2)-cells whose dims are not all zero.
    """
    p = page.p
    for s, first in page.incidences.items():
        for ci, row in page.incidences.get(s + 1, {}).items():
            if not any(page.dims[ci]):
                continue
            composite: dict = {}
            for k, v in row.items():
                for c, w in first[k].items():
                    composite[c] = (composite.get(c, 0) + v * w) % p
            if any(composite.values()):
                return False
    return True


def page_ranks(page: E1Page) -> dict:
    """Rank of each differential, ``{(s, q): rank}``.

    An identity face joins cells of equal dims, so an incidence splits
    into one block per dims vector D of its (s+1)-cells, and in degree q
    the block is that part of the coboundary tensored with the identity
    of rank D[q].  Each block's incidence rows are ranked once and the
    rank weighted by D[q].
    """
    ranks = {}
    for s, incidence in page.incidences.items():
        blocks: dict = {}
        for ci, row in incidence.items():
            blocks.setdefault(tuple(page.dims[ci]), []).append(row)
        weighted = [(d, linalg.rank(rows, page.p)) for d, rows in blocks.items()]
        for q in range(page.bound + 1):
            ranks[(s, q)] = sum(d[q] * r for d, r in weighted)
    return ranks


def page_cohomology(page: E1Page) -> dict:
    """dims of H^s per degree q, from the s-direction complexes and the
    ranks of ``page_ranks``."""
    ranks = page_ranks(page)
    out = {}
    for q in range(page.bound + 1):
        for s in range(max(page.cells_by_dim) + 1):
            size = sum(page.dims[ci][q] for ci in page.cells_by_dim.get(s, ()))
            out[(s, q)] = size - ranks.get((s, q), 0) - ranks.get((s - 1, q), 0)
    return out


def equivariant_cohomology_from_page(page: E1Page) -> GradedDims:
    """Total dims when the page collapses onto the zeroth column.

    Anything surviving in a higher column would feed the maps of later
    pages, so the computation refuses to continue in that case.
    """
    coh = page_cohomology(page)
    for (s, q), d in coh.items():
        if s > 0 and d:
            raise ConcentrationError(f"page survives at column {s}, degree {q}")
    return GradedDims(page.bound, tuple(coh[(0, q)] for q in range(page.bound + 1)))


# ---------------------------------------------------------------------------
# component-level assembly


def component_cohomology(
    cx: QuotientComplex, component: int, bound: int, rule: Optional[CoefficientRule] = None
) -> GradedDims:
    """Equivariant cohomology dims of one component of the quotient.

    A component without the special edge, the 1-cell with special faces
    in the rule, is its own page.  The component holding it is first
    checked to retract onto it; its answer is then the segment's, the
    equalizer of the edge's two face morphisms, which refuses unless
    coker [alpha, -beta] vanishes.  ``rule`` defaults to
    ``sylow_rule(cx, bound)``.
    """
    if rule is None:
        rule = sylow_rule(cx, bound)
    edge = min((ci for ci, _ in rule.special_faces if cx.component_of[ci] == component), default=None)
    if edge is None:
        cells = [c.index for c in cx.cells if cx.component_of[c.index] == component]
        return equivariant_cohomology_from_page(build_e1(cx, rule, cells))
    _check_retraction(cx, cx.cells[edge])
    return _segment_cohomology(rule, edge)


def _segment_cohomology(rule: CoefficientRule, edge: int) -> GradedDims:
    """The page of the special edge and its two vertices, whose one
    differential sends (a, b) to alpha(a) - beta(b): column 0 is the
    equalizer of the face morphisms on the product A x B of their sources,
    and column 1, the cokernel, must vanish, so dim E_q = dim (A x B)_q
    less the equalizer in every degree q."""
    source, f, g = product_pair(rule.special_faces[(edge, 0)], rule.special_faces[(edge, 1)])
    kernel = equalizer(f, g, rule.bound)
    edge_dims = rule.cell_dims[edge]
    for q in range(rule.bound + 1):
        if edge_dims[q] != len(source.basis(q)) - kernel[q]:
            raise ConcentrationError(f"page survives at column 1, degree {q}")
    return kernel


def _check_retraction(cx: QuotientComplex, edge):
    """The special edge must carry its component up to acyclic padding.

    Removing the open edge has to disconnect the component into pieces
    with trivial reduced homology, one per endpoint.  No other cell may
    hold both endpoints (a second special edge would), and every other
    cell of positive dimension must have a Sylow-p stabilizer of order
    exactly p (the identity region).  These are the mechanical facts
    behind collapsing the component onto the edge.
    """
    component = cx.component_of[edge.index]
    ends = set(edge.vertices)
    rest = [c for c in cx.cells if cx.component_of[c.index] == component and c.index != edge.index]
    for c in rest:
        if c.dim >= 1 and ends <= set(c.vertices):
            raise ConcentrationError("a higher cell touches both special endpoints")
        if c.dim >= 1 and sylow_p_order(c.isotropy_order, cx.p) != cx.p:
            raise ConcentrationError("identity region contains a big stabilizer")
    pieces = _components(rest)
    if len(pieces) != 2:
        raise ConcentrationError(
            f"removing the special edge left {len(pieces)} pieces, expected 2"
        )
    for piece in pieces:
        if any(reduced_homology(cx, piece)):
            raise ConcentrationError("a piece outside the special edge is not acyclic")


def corollary_dims(cx: QuotientComplex, bound: int) -> dict:
    """Per-component and total equivariant cohomology dims, from one rule."""
    rule = sylow_rule(cx, bound)
    out = {
        key: component_cohomology(cx, cx.component_containing(anchor), bound, rule)
        for key, anchor in catalog.COMPONENT_ANCHORS.items()
    }
    out["total"] = out["rose"].add(out["theta11"]).add(out["k33"])
    return out


# ---------------------------------------------------------------------------
# the recursion pipeline with pluggable input


@dataclass
class RecursionReport:
    p: int
    bound: int
    eq_dims: GradedDims
    invariant_dims: GradedDims
    kernel_tensor_dims: GradedDims
    identity_holds: bool


def theorem_pipeline(
    p: int, aut_input: GradedAlgebra, restriction_images: dict, bound: int
) -> RecursionReport:
    """Equalizer bookkeeping for the rank-two normalizer component.

    M is the metacyclic cohomology at m = p-1; the pluggable input stands
    for the cohomology of the relevant automorphism group with a stated
    restriction onto M, required to be surjective in every degree.  The
    pipeline computes the swap-fixed preimage under f1 = id x restriction,
    from M (x) input to M (x) M (the u with swap(f1(u)) = f1(u)), and
    verifies

        dim Eq(d) = dim invariants(d) + dim (M (x) ker restriction)(d).
    """
    M, restriction, f1 = _recursion_maps(p, aut_input, restriction_images)
    for d in range(bound + 1):
        if not restriction.is_surjective_in_degree(d):
            raise ValueError(f"restriction is not surjective in degree {d}")

    MM = f1.target
    pairs = [(g.name + "_1", g.name + "_2") for g in M.generators]
    swap = swap_action(MM, pairs)
    inv = invariants(MM, [swap], bound)
    eq_dims = equalizer(compose_morphisms(swap, f1), f1, bound)

    # the restriction is onto in every degree, so M (x) ker restriction
    # has the dims of M (x) input less those of M (x) M
    kernel_dims = GradedDims(
        bound, tuple(len(f1.source.basis(d)) - len(MM.basis(d)) for d in range(bound + 1))
    )

    holds = all(
        eq_dims[d] == inv[d] + kernel_dims[d] for d in range(bound + 1)
    )
    return RecursionReport(p, bound, eq_dims, inv, kernel_dims, holds)


def _recursion_maps(p: int, aut_input: GradedAlgebra, restriction_images: dict) -> tuple:
    """(M, the restriction from the input onto M, and f1 = id x restriction
    from M (x) input to M (x) M) for the recursion pipeline."""
    M = cohomology_of_metacyclic(p, p - 1)
    restriction = AlgebraMorphism(
        aut_input,
        M,
        {g.name: parse_element(M, restriction_images[g.name]) for g in aut_input.generators},
    )
    MM = tensor(p, M, M, suffixes=["_1", "_2"])
    big = tensor(p, M, aut_input, suffixes=["_1", ""])
    # the inclusion of the second copy, g -> g_2
    second = AlgebraMorphism(M, MM, {g.name: MM.generator_element(g.name + "_2") for g in M.generators})
    f1_images = {g.name + "_1": MM.generator_element(g.name + "_1") for g in M.generators}
    for g in aut_input.generators:
        f1_images[g.name] = second.apply(restriction.images[g.name])
    return M, restriction, AlgebraMorphism(big, MM, f1_images)
