"""Isotropy pages over the quotient complex and cohomology assembly.

Each cell of the quotient carries the cohomology of its stabilizer as a
graded coefficient; faces induce restriction maps.  For the components
handled here the coefficient rule is configuration data: cells whose
stabilizer has Sylow-p part of order p share a fixed graded model with
identity faces, while the two big vertex groups and the edge joining them
carry explicit algebras and the two restriction morphisms.  Components
with a uniform rule are resolved by a direct page computation; the
component owning the special edge is resolved by checking that everything
outside that edge is an acyclic identity region and then computing the
equalizer of the two restrictions (the amalgam answer for a segment
fundamental domain).

Both read the restriction morphisms as sparse rows: the page's
differentials are lists of ``{column: value}`` rows holding the
morphisms' ``add_rows`` entries at block offsets, and the amalgam is the
kernel of the two restrictions out of the product of the vertex algebras,
from the same rows as the ``equalizer`` the series criteria read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from spinelab import catalog, linalg
from spinelab.algebra import (
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
    _check_pairs,
    _kernel_rows,
)
from spinelab.fixtures import load_algebras, load_coefficient_rule, load_morphism
from spinelab.series import GradedDims
from spinelab.spine import QuotientComplex, _components, reduced_homology
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

    def dims_of(self, cell_index: int):
        return self.cell_dims[cell_index]

    def face_morphism(self, cell_index: int, position: int):
        return self.special_faces.get((cell_index, position))


def sylow_rule(cx: QuotientComplex, bound: int, with_special_edge: bool = True) -> CoefficientRule:
    """The shipped coefficient rule for the p = 3 rank-4 complex.

    Stabilizers with Sylow-3 order 3 all carry the same model with
    identity faces; the two order-9 vertices and the edge between them
    carry the two explicit restriction morphisms.
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

    special = {}
    if with_special_edge:
        edge_cfg = cfg["critical_edge"]
        vertex_algebra = {
            name: algebras[key] for name, key in edge_cfg["vertex_algebras"].items()
        }
        face_morphism = {
            name: load_morphism(key, algebras)
            for name, key in edge_cfg["face_morphisms"].items()
        }
        edge_algebra = algebras[edge_cfg["edge_algebra"]]
        for cell in _special_edges(cx, edge_cfg):
            names = cx.cell_vertex_names(cell)  # [collapsed, top]
            cell_dims[cell.index] = dimensions(edge_algebra, bound).dims
            for position, name in ((0, names[1]), (1, names[0])):
                # omitting vertex 0 leaves the top endpoint, omitting 1
                # leaves the collapsed one
                special[(cell.index, position)] = face_morphism[name]
                vertex_cell = cx.cells[cell.faces[position]]
                cell_dims[vertex_cell.index] = dimensions(vertex_algebra[name], bound).dims
    return CoefficientRule(bound, cell_dims, special)


def constant_rule(cx: QuotientComplex, bound: int, model: GradedAlgebra) -> CoefficientRule:
    dims = dimensions(model, bound).dims
    return CoefficientRule(bound, {c.index: dims for c in cx.cells}, {})


@dataclass
class E1Page:
    """Cochain complex of graded vector spaces over the cell structure."""

    p: int
    bound: int
    cells_by_dim: dict  # s -> ordered cell indices
    dims: dict  # cell index -> dims vector
    differentials: dict  # (s, q) -> sparse rows of C^s(q) -> C^{s+1}(q)


def build_e1(
    cx: QuotientComplex,
    rule: CoefficientRule,
    component: Optional[int] = None,
    cell_indices: Optional[list] = None,
) -> E1Page:
    """Assemble the page of a component, a cell subset, or everything.

    The coboundary into a cell of dimension s+1 is the alternating sum of
    its face maps; identity faces require equal dims on both sides.  A
    cell subset must be closed under faces.  Each differential is a list
    of sparse rows ``{column: value}``, one per basis vector of the
    (s+1)-cochains, with entries reduced mod p and zeros dropped.
    """
    if cell_indices is not None:
        chosen = set(cell_indices)
        for ci in chosen:
            for f in cx.cells[ci].faces:
                if f not in chosen:
                    raise CoefficientRuleError("cell subset is not closed under faces")
        selected = [c for c in cx.cells if c.index in chosen]
    else:
        selected = [
            c
            for c in cx.cells
            if component is None or cx.component_of[c.index] == component
        ]
    for cell in selected:
        if cell.index not in rule.cell_dims:
            raise CoefficientRuleError(f"cell {cell.index} is not covered by the rule")
    cells_by_dim: dict = {}
    for cell in selected:
        cells_by_dim.setdefault(cell.dim, []).append(cell.index)
    for s in cells_by_dim:
        cells_by_dim[s].sort()

    p, bound = cx.p, rule.bound
    offsets = {}
    for s, ids in cells_by_dim.items():
        offsets[s] = {}
        for q in range(bound + 1):
            acc = 0
            for ci in ids:
                offsets[s][(ci, q)] = acc
                acc += rule.dims_of(ci)[q]

    differentials = {}
    for s in sorted(cells_by_dim):
        if s + 1 not in cells_by_dim:
            continue
        for q in range(bound + 1):
            rows = [{} for ci in cells_by_dim[s + 1] for _ in range(rule.dims_of(ci)[q])]
            for ci in cells_by_dim[s + 1]:
                cell = cx.cells[ci]
                row0 = offsets[s + 1][(ci, q)]
                target_dim = rule.dims_of(ci)[q]
                for position, face in enumerate(cell.faces):
                    sign = (-1) ** position
                    col0 = offsets[s][(face, q)]
                    source_dim = rule.dims_of(face)[q]
                    morphism = rule.face_morphism(ci, position)
                    if morphism is None:
                        if source_dim != target_dim:
                            raise CoefficientRuleError(
                                f"identity face of cell {ci} has mismatched dims "
                                f"({source_dim} vs {target_dim}) in degree {q}"
                            )
                        block = {k: {k: 1} for k in range(target_dim)}
                    else:
                        block = {i: row for (_, i), row in morphism.add_rows(q).items()}
                    for r, entries in block.items():
                        row = rows[row0 + r]
                        for c, v in entries.items():
                            row[col0 + c] = row.get(col0 + c, 0) + sign * v
            differentials[(s, q)] = [{c: v % p for c, v in row.items() if v % p} for row in rows]
    return E1Page(p, bound, cells_by_dim, {c.index: rule.dims_of(c.index) for c in selected}, differentials)


def check_d_squared(page: E1Page) -> bool:
    """Whether each composite of two consecutive differentials vanishes,
    composed row by row: a row of the second times the rows of the first."""
    for (s, q), rows in page.differentials.items():
        for row in page.differentials.get((s + 1, q), ()):
            composite: dict = {}
            for k, v in row.items():
                for c, w in rows[k].items():
                    composite[c] = (composite.get(c, 0) + v * w) % page.p
            if any(composite.values()):
                return False
    return True


def page_cohomology(page: E1Page) -> dict:
    """dims of H^s per degree q, from the s-direction complexes."""
    out = {}
    max_s = max(page.cells_by_dim)
    for q in range(page.bound + 1):
        sizes = {
            s: sum(page.dims[ci][q] for ci in page.cells_by_dim.get(s, []))
            for s in range(max_s + 1)
        }
        for s in range(max_s + 1):
            incoming = page.differentials.get((s - 1, q))
            outgoing = page.differentials.get((s, q))
            out[(s, q)] = sizes[s] - linalg.rank(outgoing, page.p) - linalg.rank(incoming, page.p)
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
# amalgam over a segment


def amalgam_cohomology(f1: AlgebraMorphism, f2: AlgebraMorphism, bound: int) -> GradedDims:
    """Equalizer dims of two algebra morphisms into a common target.

    At least one of the maps must be surjective in every degree (else the
    connecting maps of the pair would interfere); the result in degree d is
    dim ker [f1, -f2], the pairs (u, v) with f1(u) = f2(v), computed as the
    equalizer of the two projections out of the product of the sources.
    The guard and the equalizer read each degree in turn, so each map
    builds the images of a degree once.
    """
    src = ProductAlgebra([f1.source, f2.source])
    pairs = [(ProductMorphism(src, 0, f1), ProductMorphism(src, 1, f2))]
    _check_pairs(src, pairs)
    dims = []
    for d in range(bound + 1):
        if not (f1.is_surjective_in_degree(d) or f2.is_surjective_in_degree(d)):
            raise ValueError(f"neither map is surjective in degree {d}")
        rows = _kernel_rows(src, pairs, d)
        dims.append(len(src.basis(d)) - linalg.rank(rows.values(), src.p))
    return GradedDims(bound, tuple(dims))


# ---------------------------------------------------------------------------
# component-level assembly


def component_cohomology(cx: QuotientComplex, component: int, bound: int) -> GradedDims:
    """Equivariant cohomology dims of one component of the quotient.

    Components without the special edge use the uniform rule and the page
    computation directly.  The component carrying the special edge is
    first checked to retract onto it: removing the open edge must leave
    acyclic identity-coefficient pieces, one per endpoint; the answer is
    then the equalizer of the two restriction morphisms.
    """
    edge_cfg = load_coefficient_rule()["critical_edge"]
    endpoints = set(edge_cfg["endpoints"])
    names_in_component = {
        cx.classes[c.graph_index].name
        for c in cx.cells
        if c.dim == 0 and cx.component_of[c.index] == component
    }
    if not endpoints <= names_in_component:
        rule = sylow_rule(cx, bound, with_special_edge=False)
        page = build_e1(cx, rule, component)
        return equivariant_cohomology_from_page(page)
    _check_retraction(cx, component, edge_cfg)
    algebras = load_algebras()
    alpha = load_morphism(edge_cfg["face_morphisms"]["K33"], algebras)
    beta = load_morphism(edge_cfg["face_morphisms"]["Theta2vTheta2"], algebras)
    return amalgam_cohomology(alpha, beta, bound)


def _special_edges(cx: QuotientComplex, edge_cfg: dict) -> list:
    """The 1-cells whose two vertices carry the endpoint names of the
    coefficient rule's critical edge."""
    endpoints = set(edge_cfg["endpoints"])
    return [c for c in cx.cells_of_dim(1) if set(cx.cell_vertex_names(c)) == endpoints]


def special_edge_cells(cx: QuotientComplex) -> list:
    """The special 1-cell and its two endpoint vertices, as cell indices."""
    edges = _special_edges(cx, load_coefficient_rule()["critical_edge"])
    if not edges:
        raise CoefficientRuleError("no special edge in the complex")
    return sorted([edges[0].index, *edges[0].faces])


def _check_retraction(cx: QuotientComplex, component: int, edge_cfg: dict):
    """The special edge must carry the component up to acyclic padding.

    Removing the open edge has to disconnect the component into pieces
    with trivial reduced homology, one per endpoint, and every other cell
    must have a Sylow-p stabilizer of order exactly p (the identity
    region).  These are the mechanical facts behind collapsing the
    component onto the edge.
    """
    endpoints = set(edge_cfg["endpoints"])
    cells = [c for c in cx.cells if cx.component_of[c.index] == component]
    special = [c for c in _special_edges(cx, edge_cfg) if cx.component_of[c.index] == component]
    if len(special) != 1:
        raise ConcentrationError("expected exactly one special edge in the component")
    edge = special[0]
    for c in cells:
        if c.index == edge.index:
            continue
        if set(cx.cell_vertex_names(c)) >= endpoints and c.dim >= 1:
            raise ConcentrationError("a higher cell touches both special endpoints")
    rest = [c for c in cells if c.index != edge.index]
    for c in rest:
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
    """Per-component and total equivariant cohomology dims."""
    out = {
        key: component_cohomology(cx, cx.component_containing(anchor), bound)
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
    eq_dims = equalizer(compose_morphisms(swap, f1), f1, bound).dims

    M_dims = dimensions(M, bound)
    aut_dims = dimensions(aut_input, bound)
    kernel = [aut_dims[d] - M_dims[d] for d in range(bound + 1)]
    tensor_kernel = []
    for d in range(bound + 1):
        tensor_kernel.append(sum(M_dims[i] * kernel[d - i] for i in range(d + 1)))
    kernel_dims = GradedDims(bound, tuple(tensor_kernel))

    holds = all(
        eq_dims[d] == inv.dims[d] + kernel_dims[d] for d in range(bound + 1)
    )
    return RecursionReport(p, bound, eq_dims, inv.dims, kernel_dims, holds)


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
    f1_images = {}
    for g in M.generators:
        f1_images[g.name + "_1"] = MM.generator_element(g.name + "_1")
    for g in aut_input.generators:
        img = restriction.images[g.name]
        f1_images[g.name] = Element(
            MM,
            {
                _shift_monomial(MM, M, m): c
                for m, c in img.coeffs.items()
            },
        )
    return M, restriction, AlgebraMorphism(big, MM, f1_images)


def _shift_monomial(MM: GradedAlgebra, M: GradedAlgebra, mono):
    """Recast a monomial of M as a monomial of MM in the second copy."""
    k = len(M.generators)
    out = [0] * len(MM.generators)
    for i, e in enumerate(mono):
        out[k + i] = e
    return tuple(out)