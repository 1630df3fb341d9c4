"""Dart-level oracles: isomorphism search, automorphism groups and cells.

The library answers every isomorphism question from the canonical
labelling.  This search is independent of it: it assigns darts one orbit
at a time under the edge involution (and an intertwined action, if
given), so tests comparing the two keep "canonical form is a complete
invariant" from being a tautology.  Likewise the library takes each
vertex automorphism group from the generators its canonical search
finds, and ``vertex_perms`` lists the group by an unpruned backtracking
search instead.

The library never lists a dart-level automorphism: it scans forest
chains as chains of bundle sets under the vertex group, and counts the
automorphisms fixing every vertex.  ``automorphism_group`` lists the
whole dart group, and ``oracle_quotient_complex`` builds the cells from
it the direct way: each chain's orbit, stabilizer and translates by
scanning every element, and each re-rooted face along a searched dart
isomorphism.  ``isomorphism`` lifts the vertex map of two canonical
labellings to darts, matching loops and parallel edges in edge order,
and ``automorphism_group`` lifts each vertex permutation the same way.
The graph helpers beside them have no caller left in the library.

``every_forest_cells_for_class`` is the library's bundle-level scan as it
was before it listed only the forests an order-p element can fix: every
nonempty bundle forest of the top graph is visited, in key order, and
its orbit scanned under the whole vertex group.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import prod
from typing import Iterator, Optional

from spinelab.graphs import HalfEdgeGraph, collapse_with_maps, enumerate_forests
from spinelab.spine import QuotientCell
from spinelab.symmetry import (
    GraphAutomorphism,
    _dart_freedom,
    bundle_names,
    bundle_perms,
    canonical_form,
    edge_permutation,
    perm_order,
)


def degree_multiset(g: HalfEdgeGraph) -> tuple:
    return tuple(sorted(g.valences))


def total_loops(g: HalfEdgeGraph) -> int:
    return sum(1 for e in range(g.edge_count) if g.is_loop(e))


def elements_of_order(elements, k: int) -> list:
    if k < 1:
        raise ValueError("order must be >= 1")
    return [a for a in elements if perm_order(a) == k]


def graph_signature(g: HalfEdgeGraph) -> tuple:
    """(vertices, edges, loops, degree multiset): a cheap invariant."""
    return (g.vertex_count, g.edge_count, total_loops(g), degree_multiset(g))


def dart_isomorphisms(
    g1: HalfEdgeGraph,
    g2: HalfEdgeGraph,
    intertwine: Optional[tuple] = None,
) -> Iterator[GraphAutomorphism]:
    """Yield dart-level isomorphisms g1 -> g2.

    With ``intertwine=(a, b)`` only isomorphisms f satisfying
    f . a = b . f are produced, i.e. conjugations carrying the symmetry a
    of g1 to the symmetry b of g2.  The search assigns whole orbits of the
    group generated by the involution (and a, if given), so highly
    symmetric inputs stay cheap.
    """
    if (
        g1.vertex_count != g2.vertex_count
        or g1.half_edge_count != g2.half_edge_count
        or graph_signature(g1) != graph_signature(g2)
    ):
        return

    m = g1.half_edge_count
    a1, b2 = (intertwine if intertwine else (None, None))

    inv1 = _dart_invariants(g1, a1)
    inv2 = _dart_invariants(g2, b2)
    if sorted(inv1) != sorted(inv2):
        return
    candidates = [
        [y for y in range(m) if inv2[y] == inv1[x]] for x in range(m)
    ]

    hmap = [None] * m
    used = [False] * m
    vmap = [None] * g1.vertex_count
    vused = [False] * g2.vertex_count

    def assign(x, y, trail):
        """Propagate x -> y through sigma (and the intertwined action)."""
        queue = [(x, y)]
        while queue:
            x, y = queue.pop()
            if hmap[x] is not None:
                if hmap[x] != y:
                    return False
                continue
            if used[y] or inv1[x] != inv2[y]:
                return False
            u, w = g1.target[x], g2.target[y]
            if vmap[u] is None:
                if vused[w]:
                    return False
                vmap[u] = w
                vused[w] = True
                trail.append(("v", u, w))
            elif vmap[u] != w:
                return False
            hmap[x] = y
            used[y] = True
            trail.append(("h", x, y))
            queue.append((g1.sigma[x], g2.sigma[y]))
            if a1 is not None:
                queue.append((a1.hperm[x], b2.hperm[y]))
        return True

    def undo(trail):
        for kind, i, j in reversed(trail):
            if kind == "h":
                hmap[i] = None
                used[j] = False
            else:
                vmap[i] = None
                vused[j] = False

    def solve(start: int) -> Iterator[GraphAutomorphism]:
        x = start
        while x < m and hmap[x] is not None:
            x += 1
        if x == m:
            yield GraphAutomorphism(tuple(vmap), tuple(hmap))
            return
        for y in candidates[x]:
            if used[y]:
                continue
            trail: list = []
            if assign(x, y, trail):
                yield from solve(x + 1)
            undo(trail)

    yield from solve(0)


def _dart_invariants(g: HalfEdgeGraph, action: Optional[GraphAutomorphism]) -> list:
    mult = g.multiplicity
    inv = []
    for h in range(g.half_edge_count):
        u = g.target[h]
        w = g.target[g.sigma[h]]
        entry = (
            g.valences[u],
            g.valences[w],
            u == w,
            mult[u][w] if u != w else mult[u][u],
        )
        if action is not None:
            entry += (_cycle_length(action.hperm, h), action.vperm[u] == u)
        inv.append(entry)
    return inv


def _cycle_length(perm, x):
    n, y = 1, perm[x]
    while y != x:
        y = perm[y]
        n += 1
    return n


def are_isomorphic(g1: HalfEdgeGraph, g2: HalfEdgeGraph) -> bool:
    return next(dart_isomorphisms(g1, g2), None) is not None


def isomorphism(g1: HalfEdgeGraph, g2: HalfEdgeGraph) -> Optional[GraphAutomorphism]:
    """The dart-level isomorphism g1 -> g2 sending each vertex of g1 to the
    vertex of g2 at its canonical position; None when there is none."""
    form1, form2 = canonical_form(g1), canonical_form(g2)
    if form1 != form2:
        return None
    vmap = dict(zip(form1.labelling, form2.labelling))
    return _lift(g1, g2, [vmap[v] for v in range(g1.vertex_count)])


def _bundles(g: HalfEdgeGraph) -> dict:
    """The edges joining each set of ends, in edge order, as dart pairs
    whose first dart points at the smaller end."""
    out: dict = {}
    for h1, h2 in g.edges:
        pair = (h1, h2) if g.target[h1] <= g.target[h2] else (h2, h1)
        out.setdefault(frozenset(g.target[h] for h in pair), []).append(pair)
    return out


def _lift(g1: HalfEdgeGraph, g2: HalfEdgeGraph, vmap) -> GraphAutomorphism:
    """The dart map over a multiplicity-preserving vertex map g1 -> g2: the
    edges joining two vertices go in edge order onto those joining their
    images, each dart to the dart at the image of its own end."""
    images = {ends: iter(pairs) for ends, pairs in _bundles(g2).items()}
    hperm = [0] * g1.half_edge_count
    for h1, h2 in g1.edges:
        u = vmap[g1.target[h1]]
        k1, k2 = next(images[frozenset((u, vmap[g1.target[h2]]))])
        hperm[h1], hperm[h2] = (k1, k2) if g2.target[k1] == u else (k2, k1)
    return GraphAutomorphism(tuple(vmap), tuple(hperm))


def vertex_perms(g: HalfEdgeGraph) -> list:
    """All vertex permutations preserving loop counts and multiplicities,
    each vertex mapped in turn to every vertex of its valence and loop
    count that keeps the multiplicities to the vertices mapped before."""
    n = g.vertex_count
    mult = g.multiplicity
    out = []

    def extend(mapping: list):
        i = len(mapping)
        if i == n:
            out.append(tuple(mapping))
            return
        for w in range(n):
            if w in mapping or g.valences[w] != g.valences[i] or mult[i][i] != mult[w][w]:
                continue
            if any(mult[i][j] != mult[w][mapping[j]] for j in range(i)):
                continue
            extend(mapping + [w])

    extend([])
    return out


# ---------------------------------------------------------------------------
# the dart-level automorphism group and the cells it gives


def automorphism_group(g: HalfEdgeGraph) -> tuple:
    """Every dart-level automorphism of g, sorted: each vertex automorphism
    (``vertex_perms``) lifted to darts and composed with each dart map
    fixing every vertex."""
    fixing, darts = _vertex_fixing_maps(g), range(g.half_edge_count)
    elements = []
    for vp in vertex_perms(g):
        lifted = _lift(g, g, vp).hperm
        elements += [GraphAutomorphism(vp, tuple(lifted[k[h]] for h in darts)) for k in fixing]
    return tuple(sorted(elements))


def _vertex_fixing_maps(g: HalfEdgeGraph) -> list:
    """Dart maps of the automorphisms fixing every vertex: the edges joining
    two vertices permuted, each dart to the dart at its own end, and each
    loop also turned or not."""
    factors = []
    for ends, pairs in _bundles(g).items():
        images = list(itertools.permutations(pairs))
        if len(ends) == 1:
            images = [
                [pair[::-1] if turn else pair for pair, turn in zip(image, turns)]
                for image in images
                for turns in itertools.product((False, True), repeat=len(pairs))
            ]
        factors.append([list(zip(pairs, image)) for image in images])
    return [
        {h: k for matched in combo for pair, image in matched for h, k in zip(pair, image)}
        for combo in itertools.product(*factors)
    ]


def chain_key(chain) -> tuple:
    return tuple(tuple(sorted(f)) for f in chain)


def whole_group_rep(elements, eperms, chain):
    """Key-minimal translate of a chain, its stabilizer and the keys of all
    its translates, each found by scanning the whole automorphism group
    ``elements``, whose edge permutations are ``eperms``."""
    chains = (tuple(frozenset(ep[e] for e in f) for f in chain) for ep in eperms)
    translates = {chain_key(t): t for t in chains}
    rep = translates[min(translates)]
    stab = tuple(
        a for a, ep in zip(elements, eperms) if all(frozenset(ep[e] for e in f) == f for f in rep)
    )
    return rep, stab, frozenset(translates)


def oracle_cells_for_class(p: int, graph: HalfEdgeGraph):
    """Cells of one top graph by whole-group scans: every forest, and every
    extension of a singular chain, is translated by every automorphism.

    Returns ``{level: {key: (chain, stabilizer, keys of its translates)}}``
    in key order, the stabilizer as dart-level automorphisms."""
    elements = automorphism_group(graph)
    eperms = [edge_permutation(graph, a) for a in elements]

    def classify(chain, level):
        rep, stab, translates = whole_group_rep(elements, eperms, chain)
        key = chain_key(rep)
        if key not in level and len(stab) % p == 0:
            level[key] = (rep, stab, translates)

    out = {0: {}}
    if len(elements) % p != 0:
        return out
    out[0][()] = ((), elements, frozenset({()}))
    frontier: dict = {}
    for f in enumerate_forests(graph):
        if f:
            classify((f,), frontier)
    level = 1
    while frontier:
        out[level] = dict(sorted(frontier.items()))
        nxt: dict = {}
        for _, (chain, _, _) in sorted(frontier.items()):
            items = sorted(chain[-1])
            for mask in range(1, (1 << len(items)) - 1):
                sub = frozenset(x for i, x in enumerate(items) if mask >> i & 1)
                classify(chain + (sub,), nxt)
        frontier = nxt
        level += 1
    return out


def every_forest_cells_for_class(p: int, cls):
    """``spine._cells_for_class`` by scanning every forest: each nonempty
    bundle forest of the top graph, and each proper nonempty subset of a
    singular chain's smallest forest, in key order, its orbit and
    stabilizer read off one pass over the chain's stabilizer and kept
    when p divides its isotropy order.  Same return value."""
    if cls.aut_order % p:
        return {0: {}}
    graph = cls.graph
    names = bundle_names(graph)
    sizes = Counter(names)
    freedom = _dart_freedom(graph)
    group = tuple(zip(cls.vertex_group, bundle_perms(graph, cls.vertex_group, names)))
    frontier = {(): ((), cls.aut_order, group, {(): tuple(range(graph.edge_count))})}
    out: dict = {}
    while frontier:
        out[len(out)] = {
            key: (chain, order, tuple(a for a, _ in stab), frozenset(translates))
            for key, (chain, order, stab, translates) in sorted(frontier.items())
        }
        nxt: dict = {}
        for chain, _, stab, translates in frontier.values():
            if chain:
                items = sorted(chain[-1])
                subs = [
                    frozenset(x for i, x in enumerate(items) if mask >> i & 1)
                    for mask in range(1, (1 << len(items)) - 1)
                ]
            else:
                subs = [f for f in enumerate_forests(graph, set(names)) if f]
            seen: set = set()
            for sub in sorted(subs, key=sorted):
                if sub in seen:
                    continue
                orbit, fixing = {}, []
                for pair in stab:
                    moved = frozenset(pair[1][e] for e in sub)
                    orbit.setdefault(moved, pair[1])
                    if moved == sub:
                        fixing.append(pair)
                seen.update(orbit)
                top = chain[0] if chain else sub
                order = len(fixing) * freedom // prod(sizes[b] for b in top)
                if order % p == 0:
                    extended = {
                        key + (tuple(sorted(g[e] for e in m)),): tuple(g[e] for e in h)
                        for key, g in translates.items()
                        for m, h in orbit.items()
                    }
                    nxt[chain_key(chain + (sub,))] = (chain + (sub,), order, fixing, extended)
        frontier = nxt
    return out


def oracle_quotient_complex(p: int, classes: list) -> list:
    """The cells of ``quotient_complex(p, n, classes)`` from the dart group.

    Each cell enters the face table under every translate of its chain by
    the whole dart group; its re-rooted face carries the chain along a
    dart isomorphism, found by ``dart_isomorphisms``, from the collapse by
    its smallest forest onto that collapse's census class."""
    per_class = [oracle_cells_for_class(p, cls.graph) for cls in classes]
    class_of = {canonical_form(cls.graph): i for i, cls in enumerate(classes)}
    cells: list = []
    lookup: dict = {}
    for dim in range(max(map(len, per_class))):
        for gi, levels in enumerate(per_class):
            for chain, stab, translates in levels.get(dim, {}).values():
                faces = [lookup[(gi, chain_key(chain[:k] + chain[k + 1 :]))] for k in range(dim)]
                vertices = (gi,)
                if dim:
                    res = collapse_with_maps(classes[gi].graph, chain[-1])
                    target = class_of[canonical_form(res.graph)]
                    rep = classes[target].graph
                    iso = next(dart_isomorphisms(res.graph, rep))
                    dart = [None if e is None else res.graph.edges[e][0] for e in res.edge_map]
                    moved = [
                        [rep.dart_edge[iso.hperm[dart[e]]] for e in f - chain[-1]]
                        for f in chain[:-1]
                    ]
                    faces.append(lookup[(target, chain_key(moved))])
                    vertices = cells[faces[-1]].vertices + vertices
                lookup.update(((gi, key), len(cells)) for key in translates)
                cell = QuotientCell(len(cells), dim, gi, chain, len(stab), tuple(faces), vertices)
                cells.append(cell)
    return cells
