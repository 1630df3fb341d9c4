"""The quotient-data sweep of the order-p census, kept as a test oracle.

The library builds the census of graphs with an order-p symmetry as the
blow-up closure of the reduced classes.  This sweep is independent of
that argument: it realizes every admissible multiset of quotient-data
units (fixed vertices and edges plus free p-orbits of each shape) in
every (vertices, edges) stratum, so tests comparing the two check the
closure for completeness against a search that does not rely on
equivariant collapse.  ``reduced_sweep`` runs the same sweep over the
reduced units only, realizing every count vector and keeping what is
admissible, against which the library's direct construction of the
reduced classes is checked.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from spinelab.equivariant import ZpGraph, dedup_equivariant
from spinelab.graphs import build_graph, is_admissible, rank
from spinelab.symmetry import GraphAutomorphism

# unit kinds: ("fixed_edge", u, v) one fixed edge: ("bundle", u, v) an orbit
# of p parallel edges between fixed vertices; ("star", u, j) an orbit of p
# edges from fixed u to the vertices of free orbit j; ("orbit_loop", j) a
# loop at each vertex of orbit j; ("chord", j, d) the cycle of chords at
# offset d inside orbit j; ("matching", j1, j2, d) the matching between two
# orbits at offset d.


def _unit_slots(p: int, f: int, m: int) -> list:
    slots = []
    for u in range(f):
        for v in range(u, f):
            slots.append(("fixed_edge", u, v))
            slots.append(("bundle", u, v))
    for u in range(f):
        for j in range(m):
            slots.append(("star", u, j))
    for j in range(m):
        slots.append(("orbit_loop", j))
        for d in range(1, (p - 1) // 2 + 1):
            slots.append(("chord", j, d))
    for j1 in range(m):
        for j2 in range(j1 + 1, m):
            for d in range(p):
                slots.append(("matching", j1, j2, d))
    return slots


def _unit_edge_count(p: int, unit) -> int:
    return 1 if unit[0] == "fixed_edge" else p


def _unit_valencies(p: int, f: int, m: int, unit) -> dict:
    """Valency contribution per quotient vertex (fixed index or ('orbit', j))."""
    kind = unit[0]
    out: dict = {}
    if kind == "fixed_edge":
        _, u, v = unit
        out[u] = out.get(u, 0) + (2 if u == v else 1)
        if u != v:
            out[v] = 1
    elif kind == "bundle":
        _, u, v = unit
        out[u] = out.get(u, 0) + (2 * p if u == v else p)
        if u != v:
            out[v] = p
    elif kind == "star":
        _, u, j = unit
        out[u] = p
        out[("orbit", j)] = 1
    elif kind == "orbit_loop":
        out[("orbit", unit[1])] = 2
    elif kind == "chord":
        out[("orbit", unit[1])] = 2
    else:
        _, j1, j2, _ = unit
        out[("orbit", j1)] = 1
        out[("orbit", j2)] = out.get(("orbit", j2), 0) + 1
    return out


def realize_quotient_data(p: int, f: int, m: int, units: Iterable) -> ZpGraph:
    """Build the ZpGraph described by a multiset of units.

    Fixed vertices come first, then each free orbit as a block of p
    consecutive vertices rotated by the action.
    """

    def orbit_vertex(j: int, i: int) -> int:
        return f + j * p + i % p

    edges = []
    orbit_of_edge = []  # (first edge of the orbit, position) for the action
    for unit in units:
        kind = unit[0]
        if kind == "fixed_edge":
            _, u, v = unit
            edges.append((u, v))
            orbit_of_edge.append(None)
        elif kind == "bundle":
            _, u, v = unit
            start = len(edges)
            edges.extend((u, v) for _ in range(p))
            orbit_of_edge.extend((start, i) for i in range(p))
        elif kind == "star":
            _, u, j = unit
            start = len(edges)
            edges.extend((u, orbit_vertex(j, i)) for i in range(p))
            orbit_of_edge.extend((start, i) for i in range(p))
        elif kind == "orbit_loop":
            j = unit[1]
            start = len(edges)
            edges.extend((orbit_vertex(j, i), orbit_vertex(j, i)) for i in range(p))
            orbit_of_edge.extend((start, i) for i in range(p))
        elif kind == "chord":
            _, j, d = unit
            start = len(edges)
            edges.extend((orbit_vertex(j, i), orbit_vertex(j, i + d)) for i in range(p))
            orbit_of_edge.extend((start, i) for i in range(p))
        else:
            _, j1, j2, d = unit
            start = len(edges)
            edges.extend((orbit_vertex(j1, i), orbit_vertex(j2, i + d)) for i in range(p))
            orbit_of_edge.extend((start, i) for i in range(p))

    g = build_graph(f + m * p, edges)
    vperm = list(range(f)) + [
        f + j * p + (i + 1) % p for j in range(m) for i in range(p)
    ]
    hperm = [None] * g.half_edge_count
    for e, tag in enumerate(orbit_of_edge):
        img = e if tag is None else tag[0] + (tag[1] + 1) % p
        h1, h2 = g.edges[e]
        k1, k2 = g.edges[img]
        # darts 2e (first endpoint) and 2e+1 (second endpoint) line up with
        # the image edge's endpoints by construction
        hperm[h1], hperm[h2] = k1, k2
    return ZpGraph(g, GraphAutomorphism(tuple(vperm), tuple(hperm)), p)


def _reduced_slots(p: int, f: int, m: int) -> list:
    """The units of reduced quotient data: fixed loops and bundles, orbit
    loops and chords, in the slot order of the library's reduced census."""
    slots = []
    for u in range(f):
        slots.append(("fixed_edge", u, u))
        slots += [("bundle", u, v) for v in range(u, f)]
    for j in range(m):
        slots.append(("orbit_loop", j))
        slots += [("chord", j, d) for d in range(1, (p - 1) // 2 + 1)]
    return slots


def stratum_raw(p: int, v: int, e: int, f: int, m: int, slots=None) -> Iterator[ZpGraph]:
    """All admissible quotient-data graphs in one (vertices, edges) stratum
    with a nontrivial action, over the given unit slots (all of them by
    default), in the lexicographic order of their unit counts.

    The slot recursion prunes on valencies: once every slot touching a
    quotient vertex has been decided the vertex must already have valency
    at least 3, and the total valency deficit can never exceed twice the
    remaining edge budget.
    """
    if f + m * p != v:
        return
    if slots is None:
        slots = _unit_slots(p, f, m)
    sizes = [_unit_edge_count(p, s) for s in slots]
    nkeys = f + m

    def key_index(key):
        return key if isinstance(key, int) else f + key[1]

    contrib = []
    for slot in slots:
        contrib.append(
            [(key_index(k), inc) for k, inc in _unit_valencies(p, f, m, slot).items()]
        )
    last_touch = [-1] * nkeys
    for i, entries in enumerate(contrib):
        for k, _ in entries:
            last_touch[k] = max(last_touch[k], i)
    if any(t < 0 for t in last_touch):
        return
    finalized_at = [[] for _ in slots]
    for k, i in enumerate(last_touch):
        finalized_at[i].append(k)
    # for deficit accounting a free orbit stands for p vertices of its valency
    weight = [1] * f + [p] * m

    def deficit(val) -> int:
        return sum(weight[k] * max(0, 3 - val[k]) for k in range(nkeys))

    def rec(i: int, remaining: int, val: list, counts: list):
        if i == len(slots):
            if remaining == 0:
                units = []
                for slot, c in zip(slots, counts):
                    units.extend([slot] * c)
                zg = realize_quotient_data(p, f, m, units)
                if not zg.trivial and is_admissible(zg.graph):
                    yield zg
            return
        for c in range(remaining // sizes[i] + 1):
            nval = list(val)
            for k, inc in contrib[i]:
                nval[k] += inc * c
            if any(nval[k] < 3 for k in finalized_at[i]):
                continue
            left = remaining - c * sizes[i]
            if deficit(nval) > 2 * left:
                continue
            yield from rec(i + 1, left, nval, counts + [c])

    yield from rec(0, e, [0] * nkeys, [])


def sweep_candidates(p: int, n: int, max_edges: int) -> list:
    """Every admissible rank-n quotient-data graph with an order-p action
    and at most max_edges edges, before deduplication."""
    found = []
    for e in range(n, max_edges + 1):
        v = e - n + 1
        for m in range(v // p + 1):
            found += [zg for zg in stratum_raw(p, v, e, v - m * p, m) if rank(zg.graph) == n]
    return found


def sweep_zp_graphs(p: int, n: int, max_edges: int) -> list:
    """The census by the sweep: classes of the candidates, census order."""
    return dedup_equivariant(sweep_candidates(p, n, max_edges))


def reduced_sweep(p: int, n: int, max_edges: int) -> list:
    """The reduced rank-n graphs with an order-p action and at most
    max_edges edges, before deduplication: every count vector of reduced
    units in the strata of the library's reduced census (every vertex
    fixed, or one free orbit) is realized, and the nontrivial admissible
    ones are kept, in stratum order and then in the order of the counts."""
    strata = [(v, 0) for v in range(1, max_edges - n + 2) if p * (v - 1) <= n + v - 1]
    if (n - 1) % p == 0 and n + p - 1 <= max_edges:
        strata.append((0, 1))
    found = []
    for f, m in strata:
        v = f + m * p
        found += stratum_raw(p, v, n + v - 1, f, m, _reduced_slots(p, f, m))
    return found
