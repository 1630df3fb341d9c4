"""The isotropy page written out degree by degree, the long way.

Every differential, identity faces included, is a list of sparse rows
``{column: value}`` in every degree q, identity faces writing their
diagonal into each (s+1)-cell's block of rows and face morphisms their
``add_rows`` entries at block offsets; each is ranked, and each
composite of two is checked, degree by degree.  It is the only page
with face maps: ``spinelab.assembly`` builds pages of identity faces
only, each differential kept as one incidence, and reads the special
edge's segment as the equalizer of its two face morphisms.  The tests
compare both against this.
"""

from __future__ import annotations

from dataclasses import dataclass

from spinelab import linalg
from spinelab.assembly import CoefficientRuleError


@dataclass
class Page:
    p: int
    bound: int
    cells_by_dim: dict  # s -> ordered cell indices
    dims: dict  # cell index -> dims vector
    differentials: dict  # (s, q) -> sparse rows of C^s(q) -> C^{s+1}(q)


def build_e1(cx, rule, cells) -> Page:
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
    differentials = {}
    for s in sorted(cells_by_dim):
        if s + 1 not in cells_by_dim:
            continue
        cofaces = [
            (ci, [((-1) ** k, f, rule.special_faces.get((ci, k))) for k, f in enumerate(cx.cells[ci].faces)])
            for ci in cells_by_dim[s + 1]
        ]
        for q in range(bound + 1):
            first_column, acc = {}, 0
            for face in cells_by_dim[s]:
                first_column[face] = acc
                acc += dims[face][q]
            rows = []
            for ci, faces in cofaces:
                block = [{} for _ in range(dims[ci][q])]
                for sign, face, morphism in faces:
                    offset = first_column[face]
                    if morphism is None:
                        if dims[face][q] != len(block):
                            raise CoefficientRuleError(
                                f"identity face of cell {ci} has mismatched dims "
                                f"({dims[face][q]} vs {len(block)}) in degree {q}"
                            )
                        for k, row in enumerate(block, offset):
                            row[k] = row.get(k, 0) + sign
                        continue
                    for (_, i), entries in morphism.add_rows(q).items():
                        row = block[i]
                        for c, v in entries.items():
                            row[offset + c] = row.get(offset + c, 0) + sign * v
                rows += block
            differentials[(s, q)] = [{c: v % p for c, v in row.items() if v % p} for row in rows]
    return Page(p, bound, cells_by_dim, dims, differentials)


def check_d_squared(page: Page) -> bool:
    for (s, q), rows in page.differentials.items():
        for row in page.differentials.get((s + 1, q), ()):
            composite: dict = {}
            for k, v in row.items():
                for c, w in rows[k].items():
                    composite[c] = (composite.get(c, 0) + v * w) % page.p
            if any(composite.values()):
                return False
    return True


def page_ranks(page: Page) -> dict:
    return {key: linalg.rank(rows, page.p) for key, rows in page.differentials.items()}


def page_cohomology(page: Page) -> dict:
    ranks = page_ranks(page)
    out = {}
    for q in range(page.bound + 1):
        for s in range(max(page.cells_by_dim) + 1):
            size = sum(page.dims[ci][q] for ci in page.cells_by_dim.get(s, ()))
            out[(s, q)] = size - ranks.get((s, q), 0) - ranks.get((s - 1, q), 0)
    return out
