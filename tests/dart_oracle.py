"""The dart-level backtracking isomorphism search, kept as a test oracle.

The library answers every isomorphism question from the canonical
labelling.  This search is independent of it: it assigns darts one orbit
at a time under the edge involution (and an intertwined action, if
given), so tests comparing the two keep "canonical form is a complete
invariant" from being a tautology.  Likewise the library takes each
vertex automorphism group from the generators its canonical search
finds, and ``vertex_perms`` lists the group by an unpruned backtracking
search instead.  The graph helpers beside them have no caller left in
the library.
"""

from __future__ import annotations

from typing import Iterator, Optional

from spinelab.graphs import HalfEdgeGraph
from spinelab.symmetry import AutGroup, GraphAutomorphism, perm_order


def degree_multiset(g: HalfEdgeGraph) -> tuple:
    return tuple(sorted(g.valences))


def total_loops(g: HalfEdgeGraph) -> int:
    return sum(1 for e in range(g.edge_count) if g.is_loop(e))


def elements_of_order(group: AutGroup, k: int) -> list:
    if k < 1:
        raise ValueError("order must be >= 1")
    return [a for a in group.elements if perm_order(a) == k]


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
