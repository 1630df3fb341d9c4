"""Census of admissible graphs and the cell structure of their collapse poset.

Vertices of the complex built here are isomorphism classes of admissible
graphs of a fixed rank whose symmetry group contains an element of prime
order p.  They are the underlying graphs of the order-p census, the
blow-up closure of the reduced classes (``equivariant``), so no class
without such an element is built, and the full census of the rank is
not built at all.  A k-cell is an orbit of a strictly nested chain of
nonempty forests on a top graph, kept when the subgroup preserving every
forest of the chain setwise still contains an element of order p.
A forest F's isotropy order is |Stab_V(F)| * freedom / prod m_b: its
vertex stabilizer's order times the automorphisms fixing every vertex,
over the multiplicities of its bundles.  So p divides it only if a
vertex automorphism of order p fixes F (Cauchy), making F a union of
its bundle orbits, or if the bundles' p-adic valuations sum to less
than the freedom's.  The one-forest chains are listed directly from
these two cases, and no other one-forest chain is scanned.
Faces drop one forest from the chain, or re-root the chain at the
smallest collapse; each is one lookup in a table that keys every
translate of a cell's chain to the cell, and a cell's vertices are read
off its re-rooted face.  Chains are acted on through bundles, the sets
of parallel edges, by the vertex group alone; no dart-level automorphism
is ever listed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from math import lcm, prod
from typing import Optional

from spinelab import catalog, linalg
from spinelab.equivariant import enumerate_zp_graphs
from spinelab.graphs import (
    HalfEdgeGraph,
    _acyclic_unions,
    _root,
    _union,
    collapse,
    collapse_with_maps,
    enumerate_forests,
    is_forest,
)
from spinelab.symmetry import (
    _cycles,
    _dart_freedom,
    _vertex_group,
    automorphism_order,
    bundle_names,
    bundle_perms,
    canonical_form,
    sylow_p_order,
)


class NameAmbiguityError(RuntimeError):
    """A census class could not be matched to a unique catalog name."""


@dataclass(frozen=True)
class GraphClass:
    """A census class with the order of its automorphism group and its
    vertex group, as image tuples."""

    graph: HalfEdgeGraph
    aut_order: int
    vertex_group: tuple
    name: Optional[str] = None


def singular_graphs(p: int, n: int) -> list:
    """Admissible rank-n classes with a symmetry of order p, as GraphClass;
    p must be an odd prime.

    A class has a symmetry of order p exactly when p divides its group
    order (Cauchy), and each such symmetry is the action of a graph in the
    equivariant census ``enumerate_zp_graphs(p, n, 3n - 3)``, which is
    complete at the full edge budget (see there).  So the classes are the
    census's distinct underlying graphs, read off by canonical form: the
    census is sorted by those forms, so none is searched again, and no
    class without an order-p symmetry is searched at all.  Each class is
    its form's representative, in order (edges, then form), with its
    group order (``automorphism_order``), checked against p, and its
    vertex group, under which its cells are scanned; no dart-level
    element is listed.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    forms = {canonical_form(zg.graph) for zg in enumerate_zp_graphs(p, n, 3 * n - 3)}
    out = []
    # at rank n a class with v vertices has n + v - 1 edges
    for form in sorted(forms, key=lambda f: (len(f.rows), f)):
        g = form.graph()
        order = automorphism_order(g)
        if order % p:
            raise RuntimeError(f"a class of the order-{p} census has group order {order}")
        out.append(GraphClass(g, order, tuple(_vertex_group(g))))
    return out


def match_names(classes: list) -> list:
    """Attach the rank-4 report label to each singular class.

    Each class is looked up by canonical form among the catalog
    constructions; a class with no catalog form, two constructions with
    one form or one name given to two classes is a hard error rather than
    a guess.  A construction whose multiplicity matrix is a class's own
    takes that class's form, from a table local to the call, since the
    search gives equal matrices equal forms; only the others are searched.
    """
    by_matrix = {cls.graph.multiplicity: canonical_form(cls.graph) for cls in classes}
    table = {}
    for name, make in catalog.RANK4_SINGULAR.items():
        g = make()
        form = by_matrix.get(g.multiplicity) or canonical_form(g)
        if form in table:
            raise NameAmbiguityError(f"catalog constructions {table[form]} and {name} share a form")
        table[form] = name

    named = []
    for cls in classes:
        form = canonical_form(cls.graph)
        if form not in table:
            raise NameAmbiguityError(f"no catalog name for the form {form.data.decode()}")
        named.append(replace(cls, name=table[form]))
    if len({c.name for c in named}) != len(named):
        raise NameAmbiguityError("two census classes received the same name")
    return named


# ---------------------------------------------------------------------------
# cells of the quotient of the singular locus


@dataclass(frozen=True)
class QuotientCell:
    index: int
    dim: int
    graph_index: int
    chain: tuple  # strictly decreasing forests on the top graph
    isotropy_order: int
    faces: tuple  # cell indices, ordered by omitted-vertex position
    vertices: tuple  # class indices of the collapses, most-collapsed first, top last


@dataclass
class QuotientComplex:
    p: int
    rank: int
    classes: list  # GraphClass, census order
    cells: list  # QuotientCell, sorted by (dim, graph_index, chain)
    component_of: list  # cell index -> component id
    component_count: int

    def cells_of_dim(self, d: int) -> list:
        return [c for c in self.cells if c.dim == d]

    def cell_vertex_names(self, cell: QuotientCell) -> list:
        """Names of the cell's vertices, most-collapsed first, top last."""
        return [self.classes[i].name for i in cell.vertices]

    def component_vertex_counts(self) -> list:
        counts = [0] * self.component_count
        for cell in self.cells:
            if cell.dim == 0:
                counts[self.component_of[cell.index]] += 1
        return counts

    def component_containing(self, name: str) -> int:
        for cell in self.cells:
            if cell.dim == 0 and self.classes[cell.graph_index].name == name:
                return self.component_of[cell.index]
        raise KeyError(name)


def _chain_key(chain) -> tuple:
    return tuple(tuple(sorted(f)) for f in chain)


def _cells_for_class(p: int, cls: GraphClass):
    """Orbit representatives of singular forest chains on one top graph.

    A forest holds no loop and at most one edge of each bundle (the edges
    joining two vertices), and the automorphisms fixing every vertex
    permute each bundle's edges freely.  So up to them a chain is a chain
    of bundle sets, and its key-minimal translate names each bundle by its
    least edge (``bundle_names``): chains are scanned in those names under
    the vertex group alone, acting on bundles.  A chain's isotropy order
    is its vertex stabilizer's times the number of automorphisms fixing
    every vertex and the edge that F_0 uses in each of its bundles:
    ``_dart_freedom`` divided by m_b for each such bundle b of
    multiplicity m_b.

    So a forest F has isotropy order |Stab_V(F)| * freedom / prod m_b,
    and p divides it only if p divides |Stab_V(F)|, when an element of
    order p fixes F (Cauchy) and F is an acyclic union of that element's
    bundle orbits, or if the p-adic valuations of F's m_b sum to less
    than the freedom's.  ``_singular_forests`` lists the forests of these
    two cases, a union of whole orbits, and the one-forest chains are
    scanned from it alone: every other forest lies in an orbit that the
    scan would drop.  Longer chains are grown by appending strictly
    smaller nonempty forests; the stabilizer of an extension sits inside
    the stabilizer of its prefix, so only singular representatives need
    extending.  A representative is key-minimal in its orbit and keys
    compare forest by forest, so the minimal translate of
    ``chain + (sub,)`` fixes ``chain``: it comes from the chain's
    stabilizer (the whole group for the empty chain) acting on ``sub``
    alone.  Candidates are visited in key order, so the first
    of each orbit is its representative, and one scan of the stabilizer
    gives both the orbit, marked as seen, and the extension's stabilizer.

    Each representative also comes with the keys of its translates by the
    vertex group, one per coset of its stabilizer, each kept with a bundle
    permutation carrying the chain onto it.  The translates of
    ``chain + (sub,)`` are those of ``chain`` extended by the images of
    ``sub``'s orbit under the chain's stabilizer, each key once.

    Returns ``{level: {key: (chain, isotropy order, vertex stabilizer,
    keys of its translates)}}``.
    """
    if cls.aut_order % p != 0:
        return {0: {}}
    graph = cls.graph
    names = bundle_names(graph)
    sizes = Counter(names)
    freedom = _dart_freedom(graph)
    identity = tuple(range(graph.edge_count))
    group = tuple(zip(cls.vertex_group, bundle_perms(graph, cls.vertex_group, names)))
    frontier = {(): ((), cls.aut_order, group, {(): identity})}
    out: dict = {}
    level = 0
    while frontier:
        out[level] = {
            key: (chain, order, tuple(a for a, _ in stab), frozenset(translates))
            for key, (chain, order, stab, translates) in sorted(frontier.items())
        }
        nxt = {}
        for chain, _, stab, translates in frontier.values():
            if chain:
                subs = _proper_nonempty_subsets(chain[-1])
            else:
                subs = _singular_forests(p, graph, names, group, freedom)
            seen = set()
            for sub in sorted((f for f in subs if f), key=sorted):
                if sub in seen:
                    continue
                orbit, fixing = _orbit(stab, sub)
                seen.update(orbit)
                top = chain[0] if chain else sub
                order = len(fixing) * freedom // prod(sizes[b] for b in top)
                if order % p == 0:
                    rep = chain + (sub,)
                    # g carries chain onto a translate, so g h carries rep
                    # onto that translate extended by g(m)
                    extended = {
                        key + (tuple(sorted(map(g.__getitem__, m))),): tuple(map(g.__getitem__, h))
                        for key, g in translates.items()
                        for m, h in orbit.items()
                    }
                    nxt[_chain_key(rep)] = (rep, order, fixing, extended)
        frontier = nxt
        level += 1
    return out


def _singular_forests(p: int, graph: HalfEdgeGraph, names: tuple, group, freedom: int) -> set:
    """The bundle forests that p can make singular, as a set: the acyclic
    unions of the bundle orbits of an element of order p of ``group``,
    and, where p divides ``freedom``, the forests whose bundles leave a
    factor p in it (see ``_cells_for_class``).

    An element fixes what its cyclic subgroup fixes, so one generator of
    each cyclic subgroup of order p is taken.  Every such subgroup is
    covered, so a translate of a listed forest, fixed by a conjugate
    element, is listed too; automorphisms keep multiplicities.  So the
    set is a union of whole orbits of ``group``.
    """
    bundles = sorted(set(names))
    sizes = Counter(names)
    found: set = set()
    covered: set = set()
    for vperm, bperm in group:
        if vperm in covered or lcm(*map(len, _cycles(vperm, range(len(vperm))))) != p:
            continue
        # the powers of vperm: no other generator of its subgroup is taken
        power = vperm
        while power not in covered:
            covered.add(power)
            power = tuple(map(vperm.__getitem__, power))
        orbits = [tuple(o) for o in _cycles(bperm, bundles)]
        found.update(_acyclic_unions(graph, [o for o in orbits if is_forest(graph, o)]))
    if freedom % p == 0:
        found.update(
            f
            for f in enumerate_forests(graph, bundles)
            if freedom // prod(sizes[b] for b in f) % p == 0
        )
    return found


def _orbit(stab, sub) -> tuple:
    """The orbit of a bundle set under ``stab``, (vertex permutation,
    bundle permutation) pairs, as a dict from each image to a bundle
    permutation giving it, and the pairs that fix the set."""
    orbit, fixing = {}, []
    for pair in stab:
        moved = frozenset(map(pair[1].__getitem__, sub))
        orbit.setdefault(moved, pair[1])
        if moved == sub:
            fixing.append(pair)
    return orbit, fixing


def _proper_nonempty_subsets(forest):
    items = sorted(forest)
    n = len(items)
    for mask in range(1, (1 << n) - 1):
        yield frozenset(items[i] for i in range(n) if mask >> i & 1)


def quotient_complex(p: int, n: int, classes: Optional[list] = None) -> QuotientComplex:
    """Assemble cells of every dimension, their faces, vertices and components.

    Cells are made in (dim, class, key) order, after all of their faces.
    Each enters one table under the key of every translate of its chain
    by its top class's vertex group, bundles named by their least edges,
    so a face is one lookup.  A cell's vertices are its re-rooted
    face's, then its top class: the chain F_0 > ... > F_k on G re-roots
    to F_0/F_k > ... > F_(k-1)/F_k on G/F_k, whose vertices are G/F_0,
    ..., G/F_k.  Many cells share a top class and a smallest forest, so
    each such collapse is identified with its census class once, in a
    table that lives for this call; and many such collapses share a
    multiplicity matrix, so each matrix is searched once, in a second
    table local to the call.
    """
    if classes is None:
        classes = singular_graphs(p, n)
        if n == 4:
            classes = match_names(classes)
    per_class = [_cells_for_class(p, cls) for cls in classes]
    top_level = max(max(levels) for levels in per_class) if per_class else 0
    if top_level > 2 * n - 3:
        raise RuntimeError("cell above the dimension bound of the complex")

    forms = [canonical_form(cls.graph) for cls in classes]
    form_index = {form: i for i, form in enumerate(forms)}
    cells: list = []
    lookup: dict = {}  # (class index, chain key) -> cell index
    collapses: dict = {}  # (class index, forest) -> (class index, edge map)
    searched: dict = {}  # multiplicity matrix of a collapse -> its form
    for dim in range(top_level + 1):
        for gi, levels in enumerate(per_class):
            for chain, order, _, translates in levels.get(dim, {}).values():
                faces = [lookup[(gi, _chain_key(chain[:k] + chain[k + 1 :]))] for k in range(dim)]
                if dim:
                    faces.append(
                        _rerooted_face(
                            classes, forms, form_index, lookup, collapses, searched, gi, chain
                        )
                    )
                vertices = (cells[faces[-1]].vertices if dim else ()) + (gi,)
                index = len(cells)
                cells.append(
                    QuotientCell(index, dim, gi, chain, order, tuple(faces), vertices)
                )
                for key in translates:
                    lookup[(gi, key)] = index

    pieces = _components(cells)
    component = {i: c for c, piece in enumerate(pieces) for i in piece}
    component_of = [component[cell.index] for cell in cells]
    return QuotientComplex(p, n, list(classes), cells, component_of, len(pieces))


def _rerooted_face(classes, forms, form_index, lookup, collapses, searched, gi: int, chain) -> int:
    """Face omitting the top vertex: collapse by the smallest forest.

    The collapsed graph is identified with its census representative by
    canonical form, and the vertex map that the two canonical labellings
    give is composed with the collapse into a map from the top graph's
    edges to the representative's bundles, each named by its least edge.
    That depends only on the top class and the smallest forest, so it is
    made once per key of ``collapses`` and stored there.  The form is
    searched once per multiplicity matrix and kept in ``searched``, a
    table local to the ``quotient_complex`` call: equal matrices have
    equal rows, labellings and generators.  The remaining forests are
    carried along the map and looked up.
    """
    key = (gi, chain[-1])
    if key not in collapses:
        top = classes[gi].graph
        res = collapse_with_maps(top, chain[-1])
        mult = res.graph.multiplicity
        form = searched.get(mult)
        if form is None:
            form = searched[mult] = canonical_form(res.graph)
        target = form_index[form]
        vmap = dict(zip(form.labelling, forms[target].labelling))
        along = [vmap[w] for w in res.vertex_map]
        rep = classes[target].graph
        named = {frozenset(rep.edge_endpoints(e)): b for e, b in enumerate(bundle_names(rep))}
        collapses[key] = target, [
            None if e in chain[-1] else named[frozenset(along[v] for v in top.edge_endpoints(e))]
            for e in range(top.edge_count)
        ]
    target, edge_map = collapses[key]
    moved = [[edge_map[e] for e in f if edge_map[e] is not None] for f in chain[:-1]]
    return lookup[(target, _chain_key(moved))]


def _components(cells: list) -> list:
    """Connected components of a face-closed list of cells, as lists of
    cell indices, in the order of each component's first cell."""
    pos = {cell.index: k for k, cell in enumerate(cells)}
    parent = list(range(len(cells)))
    for cell in cells:
        for f in cell.faces:
            _union(parent, pos[cell.index], pos[f])
    pieces: dict = {}
    for cell in cells:
        pieces.setdefault(_root(parent, pos[cell.index]), []).append(cell.index)
    return list(pieces.values())


# ---------------------------------------------------------------------------
# homology of a set of quotient cells over F_p


def signed_faces(cell: QuotientCell) -> dict:
    """The cell's boundary as a sparse row ``{face cell index: sign}``:
    the alternating sum of its faces, the face omitting vertex k with
    sign (-1)^k, a face met twice summing its two signs."""
    row: dict = {}
    for omit, f in enumerate(cell.faces):
        row[f] = row.get(f, 0) + (-1) ** omit
    return row


def reduced_homology(complex_: QuotientComplex, cell_ids) -> list:
    """Reduced homology dimensions of a face-closed set of cells.

    The cells form a CW complex whose boundary maps are the alternating
    sums of face cells, augmented by sending every vertex to 1, so the
    reduced homology is plain linear algebra over F_p, one row of
    ``signed_faces`` per cell; the isotropy page of ``assembly`` ranks the
    same rows.  Index d of the result is the dimension of reduced H_d.
    """
    by_dim: dict = {}
    for i in sorted(cell_ids):
        by_dim.setdefault(complex_.cells[i].dim, []).append(i)
    top = max(by_dim)
    ranks = [1]  # the augmentation
    for d in range(1, top + 1):
        rows = [signed_faces(complex_.cells[i]) for i in by_dim[d]]
        ranks.append(linalg.rank(rows, complex_.p))
    ranks.append(0)
    return [len(by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1)]


# ---------------------------------------------------------------------------
# corpus persistence and table verification


def corpus_json(complex_: QuotientComplex) -> dict:
    return {
        "p": complex_.p,
        "rank": complex_.rank,
        "graphs": [
            {
                "name": cls.name,
                "graph": cls.graph.to_json(),
                "aut_order": cls.aut_order,
                "sylow_p_order": sylow_p_order(cls.aut_order, complex_.p),
            }
            for cls in complex_.classes
        ],
        "cells": [
            {
                "dim": cell.dim,
                "top_name": complex_.classes[cell.graph_index].name,
                "forests": [sorted(f) for f in cell.chain],
                "isotropy_order": cell.isotropy_order,
                "faces": list(cell.faces),
            }
            for cell in complex_.cells
        ],
    }


def cell_rows(complex_: QuotientComplex, dim: int) -> list:
    """(vertex names top-first, isotropy order) per cell, report style."""
    return sorted(
        (tuple(reversed(complex_.cell_vertex_names(cell))), cell.isotropy_order)
        for cell in complex_.cells_of_dim(dim)
    )


class CorpusError(RuntimeError):
    """A corpus document is malformed: a configuration error, not a mismatch."""


CELL_TABLES = (("one_cells", 1), ("two_cells", 2), ("three_cells", 3))


def graph_rows(complex_: QuotientComplex) -> list:
    """(name, vertices, edges, |Aut|) per class, sorted."""
    return sorted(
        (cls.name, cls.graph.vertex_count, cls.graph.edge_count, cls.aut_order)
        for cls in complex_.classes
    )


def _component_rows(members) -> list:
    """Sorted vertex names per component, from (component, name) pairs."""
    groups: dict = {}
    for component, name in members:
        groups.setdefault(component, []).append(name)
    return sorted(tuple(sorted(names)) for names in groups.values())


def census_tables(complex_: QuotientComplex) -> dict:
    """The expected-census tables as reproduced by a computed complex."""
    tables = {"graphs": graph_rows(complex_)}
    for key, dim in CELL_TABLES:
        tables[key] = cell_rows(complex_, dim)
    tables["components"] = _component_rows(
        (complex_.component_of[c.index], complex_.classes[c.graph_index].name)
        for c in complex_.cells_of_dim(0)
    )
    return tables


def corpus_tables(data: dict) -> dict:
    """The rows of ``census_tables``, read back from a corpus document.

    Each cell row names the top graph, then the collapses along the
    stored forests from the smallest up, matched to the corpus graphs by
    canonical form once per (top, forest) pair; components follow the
    stored faces.
    """
    try:
        parsed = [
            (row["name"], HalfEdgeGraph.from_json(row["graph"]), row["aut_order"])
            for row in data["graphs"]
        ]
        graphs = {name: g for name, g, _ in parsed}
        if not all(isinstance(name, str) for name in graphs):
            raise CorpusError("corpus graphs carry no class names; names exist only at rank 4")
        names = {canonical_form(g): name for name, g, _ in parsed}
        tables = {
            "graphs": sorted((name, g.vertex_count, g.edge_count, aut) for name, g, aut in parsed)
        }
        rows: dict = {dim: [] for _, dim in CELL_TABLES}
        quotients: dict = {}  # (top name, forest) -> name of the collapse
        cells = data["cells"]
        parent = list(range(len(cells)))
        for index, cell in enumerate(cells):
            for f in cell["faces"]:
                if not 0 <= f < len(cells):
                    raise ValueError(f"face index {f} out of range")
                _union(parent, index, f)
            if cell["dim"] in rows:
                top, row = cell["top_name"], []
                for forest in reversed(cell["forests"]):
                    key = (top, tuple(forest))
                    if key not in quotients:
                        quotients[key] = names[canonical_form(collapse(graphs[top], forest))]
                    row.append(quotients[key])
                rows[cell["dim"]].append(((top, *row), cell["isotropy_order"]))
        for key, dim in CELL_TABLES:
            tables[key] = sorted(rows[dim])
        tables["components"] = _component_rows(
            (_root(parent, i), cell["top_name"]) for i, cell in enumerate(cells) if cell["dim"] == 0
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CorpusError(f"malformed corpus: {type(exc).__name__}: {exc}") from exc
    return tables


def expected_tables(expected: dict) -> dict:
    """The expected-census fixture in the row form of ``census_tables``."""
    tables = {
        "graphs": sorted(
            (r["name"], r["vertices"], r["edges"], r["aut_order"]) for r in expected["graphs"]
        )
    }
    for key, _ in CELL_TABLES:
        tables[key] = sorted((tuple(r["cell"]), r["isotropy_order"]) for r in expected[key])
    tables["components"] = sorted(tuple(sorted(c["vertices"])) for c in expected["components"])
    return tables


def table_problems(got: dict, want: dict) -> list:
    """One line for each table of ``got`` whose rows differ from ``want``."""
    return [
        f"{key} mismatch: got {got[key]}, want {want[key]}"
        for key in got
        if got[key] != want[key]
    ]


def verify_expected_tables(complex_: QuotientComplex, expected: dict) -> list:
    """Compare a computed complex against the expected-census fixture.

    Returns a list of discrepancy strings; empty means every table row is
    reproduced exactly.
    """
    return table_problems(census_tables(complex_), expected_tables(expected))
