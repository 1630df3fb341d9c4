"""Isotropy pages over the quotient complex and cohomology assembly.

Each cell of the quotient carries the cohomology of its stabilizer as a
graded coefficient; faces induce restriction maps.  The coefficient rule
is configuration data: cells whose stabilizer has Sylow-p part of order p
share a fixed graded model with identity faces, while the two big vertex
groups and the special edge joining them carry explicit algebras, and the
edge's two faces the restriction morphisms alpha and beta.

Every component is read off one page, that of a face-closed cell list
(Brown's equivariant spectral sequence, *Cohomology of Groups*, VII.7).
A component without the special edge is its own page.  The component
holding the special edge is first checked to retract onto it: everything
outside the open edge is an acyclic identity region.  Its answer is then
the page of the segment, two vertices and the edge, which is the
amalgam's Mayer-Vietoris sequence: H^0 = ker [alpha, -beta], given that
H^1 = coker [alpha, -beta] vanishes, which the page checks.

A differential whose faces are all identities is the cellular
coboundary tensored with the identity of each degree, so the page keeps
it once, as the cells' ``signed_faces`` rows, and ranks it once per dims
class rather than once per degree.  Only a differential with a special
face is written out degree by degree, as sparse rows ``{column: value}``
holding the morphisms' ``add_rows`` entries at block offsets.
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

    ``cell_dims[i]`` is the dims vector of cell i; ``face_morphism(cell,
    k)`` returns None for an identity face or the restriction morphism of
    a special face.
    """

    bound: int
    cell_dims: dict
    special_faces: dict  # (cell index, omission position) -> AlgebraMorphism

    def face_morphism(self, cell_index: int, position: int):
        return self.special_faces.get((cell_index, position))


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
    keys = edge_cfg["face_morphisms"]  # vertex name -> morphism fixture
    face_morphism = dict(zip(keys, load_morphisms(list(keys.values()), algebras)))
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
            special[(cell.index, position)] = face_morphism[name]
            cell_dims[cell.faces[position]] = dimensions(vertex_algebra[name], bound).dims
    return CoefficientRule(bound, cell_dims, special)


def constant_rule(cx: QuotientComplex, bound: int, model: GradedAlgebra) -> CoefficientRule:
    dims = dimensions(model, bound).dims
    return CoefficientRule(bound, {c.index: dims for c in cx.cells}, {})


@dataclass
class E1Page:
    """Cochain complex of graded vector spaces over the cell structure.

    The differential out of column s is kept in one of two forms.  If
    every face of every (s+1)-cell is an identity face, ``incidences[s]``
    holds each (s+1)-cell's ``signed_faces`` row, the same in every
    degree.  Otherwise ``differentials[(s, q)]`` holds, for each degree
    q, the sparse rows of C^s(q) -> C^{s+1}(q): one per basis vector of
    the (s+1)-cochains, over the s-cells' blocks of columns in cell
    order, with entries reduced mod p and zeros dropped.
    """

    p: int
    bound: int
    cells_by_dim: dict  # s -> ordered cell indices
    dims: dict  # cell index -> dims vector
    incidences: dict  # s -> {(s+1)-cell: {s-cell: sign}}, identity faces only
    differentials: dict  # (s, q) -> sparse rows, where column s has a special face


def build_e1(cx: QuotientComplex, rule: CoefficientRule, cells) -> E1Page:
    """Assemble the page of a face-closed list of cell indices.

    The coboundary into a cell of dimension s+1 is the alternating sum of
    its face maps; identity faces require equal dims on both sides in
    every degree.  Each cell's dims, and each (s+1)-cell's faces, signs
    and face morphisms, are read from the rule once.  A differential
    with identity faces only is stored as its cells' ``signed_faces``
    rows; one with a special face is written out in every degree q, an
    identity face writing its diagonal directly and a face morphism its
    ``add_rows``, degree by degree in ascending order.
    """
    chosen = set(cells)
    for ci in chosen:
        if not chosen.issuperset(cx.cells[ci].faces):
            raise CoefficientRuleError("cell list is not closed under faces")
        if ci not in rule.cell_dims:
            raise CoefficientRuleError(f"cell {ci} is not covered by the rule")
    cells_by_dim: dict = {}
    for ci in sorted(chosen):
        cells_by_dim.setdefault(cx.cells[ci].dim, []).append(ci)
    dims = {ci: rule.cell_dims[ci] for ci in chosen}

    p, bound = cx.p, rule.bound
    incidences, differentials = {}, {}
    for s in sorted(cells_by_dim):
        if s + 1 not in cells_by_dim:
            continue
        # (cell, [(sign, face, face morphism or None for the identity)])
        cofaces = [
            (ci, [((-1) ** k, f, rule.face_morphism(ci, k)) for k, f in enumerate(cx.cells[ci].faces)])
            for ci in cells_by_dim[s + 1]
        ]
        _check_identity_dims(cofaces, dims, bound)
        if all(morphism is None for _, faces in cofaces for _, _, morphism in faces):
            incidences[s] = {ci: signed_faces(cx.cells[ci]) for ci in cells_by_dim[s + 1]}
            continue
        for q in range(bound + 1):
            differentials[(s, q)] = _degree_rows(cofaces, cells_by_dim[s], dims, q, p)
    return E1Page(p, bound, cells_by_dim, dims, incidences, differentials)


def _check_identity_dims(cofaces, dims, bound) -> None:
    """Raise at the first degree, then (s+1)-cell and face in page order,
    where an identity face joins cells of different dims."""
    unequal = [
        (ci, face)
        for ci, faces in cofaces
        for _, face, morphism in faces
        if morphism is None and dims[face] != dims[ci]
    ]
    if not unequal:
        return
    for q in range(bound + 1):
        for ci, face in unequal:
            if dims[face][q] != dims[ci][q]:
                raise CoefficientRuleError(
                    f"identity face of cell {ci} has mismatched dims "
                    f"({dims[face][q]} vs {dims[ci][q]}) in degree {q}"
                )


def _degree_rows(cofaces, face_cells, dims, q, p) -> list:
    """The differential in degree q as sparse rows over the face cells'
    blocks of columns: a block of rows per (s+1)-cell, an identity face
    adding its sign on the block's diagonal, a face morphism its signed
    ``add_rows`` entries."""
    first_column, acc = {}, 0
    for face in face_cells:
        first_column[face] = acc
        acc += dims[face][q]
    rows = []
    for ci, faces in cofaces:
        block = [{} for _ in range(dims[ci][q])]
        for sign, face, morphism in faces:
            offset = first_column[face]
            if morphism is None:
                for k, row in enumerate(block, offset):
                    row[k] = row.get(k, 0) + sign
                continue
            for (_, i), entries in morphism.add_rows(q).items():
                row = block[i]
                for c, v in entries.items():
                    row[offset + c] = row.get(offset + c, 0) + sign * v
        rows += block
    return [{c: v % p for c, v in row.items() if v % p} for row in rows]


def _rows_in_degree(page: E1Page, s: int, q: int) -> list:
    """The differential out of column s in degree q as sparse rows, an
    incidence expanded into its identity blocks."""
    if s not in page.incidences:
        return page.differentials[(s, q)]
    cofaces = [
        (ci, [(sign, face, None) for face, sign in row.items()])
        for ci, row in page.incidences[s].items()
    ]
    return _degree_rows(cofaces, page.cells_by_dim[s], page.dims, q, page.p)


def _composes_to_zero(second, first, p) -> bool:
    """Whether each row of ``second`` times the rows of ``first`` it
    indexes vanishes mod p."""
    for row in second:
        composite: dict = {}
        for k, v in row.items():
            for c, w in first[k].items():
                composite[c] = (composite.get(c, 0) + v * w) % p
        if any(composite.values()):
            return False
    return True


def check_d_squared(page: E1Page) -> bool:
    """Whether each composite of two consecutive differentials vanishes.

    Two incidences are composed once, cell by cell: the composite in
    degree q is theirs tensored with the identity, so it matters on the
    (s+2)-cells whose dims are not all zero.  A pair with a special side
    is composed in every degree, row by row, the identity side expanded
    into its rows in that degree.
    """
    for s in page.cells_by_dim:
        if s + 2 not in page.cells_by_dim:
            continue
        if s in page.incidences and s + 1 in page.incidences:
            second = [row for ci, row in page.incidences[s + 1].items() if any(page.dims[ci])]
            if not _composes_to_zero(second, page.incidences[s], page.p):
                return False
            continue
        for q in range(page.bound + 1):
            second, first = _rows_in_degree(page, s + 1, q), _rows_in_degree(page, s, q)
            if not _composes_to_zero(second, first, page.p):
                return False
    return True


def page_ranks(page: E1Page) -> dict:
    """Rank of each differential, ``{(s, q): rank}``.

    An identity face joins cells of equal dims, so an incidence splits
    into one block per dims vector D of its (s+1)-cells, and in degree q
    the block is that part of the coboundary tensored with the identity
    of rank D[q].  Each block's incidence rows are ranked once and the
    rank weighted by D[q]; a differential with a special face is ranked
    in each degree.
    """
    ranks = {key: linalg.rank(rows, page.p) for key, rows in page.differentials.items()}
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

    Anything surviving in a higher column would feed later differentials,
    so the computation refuses to continue in that case.
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
    checked to retract onto it; its answer is then the page of the edge
    and its two vertices, which refuses unless coker [alpha, -beta]
    vanishes.  ``rule`` defaults to ``sylow_rule(cx, bound)``.
    """
    if rule is None:
        rule = sylow_rule(cx, bound)
    edge = min((ci for ci, _ in rule.special_faces if cx.component_of[ci] == component), default=None)
    if edge is None:
        cells = [c.index for c in cx.cells if cx.component_of[c.index] == component]
    else:
        _check_retraction(cx, cx.cells[edge])
        cells = [edge, *cx.cells[edge].faces]
    return equivariant_cohomology_from_page(build_e1(cx, rule, cells))


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

    M_dims = dimensions(M, bound)
    aut_dims = dimensions(aut_input, bound)
    kernel = [aut_dims[d] - M_dims[d] for d in range(bound + 1)]
    tensor_kernel = []
    for d in range(bound + 1):
        tensor_kernel.append(sum(M_dims[i] * kernel[d - i] for i in range(d + 1)))
    kernel_dims = GradedDims(bound, tuple(tensor_kernel))

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
