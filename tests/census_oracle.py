"""The admissible census of a rank, which the library does not build.

The library builds only the classes with an order-p symmetry, from the
equivariant blow-up closure.  The full census lives here, twice:

``every_vertex_census`` is the tests' census.  It builds one edge
stratum at a time from the rose, blowing up every vertex of every class
of the stratum below with every split at a vertex and its side swap
both (``_blow_ups``), and deduplicates by canonical form.  This is
complete: contracting a non-loop edge of an admissible graph keeps it
connected, bridgeless and of the same rank, so every class with two or
more vertices is a blow-up of a class with one edge fewer.

``_candidates`` is the labelled-matrix generator: it sweeps every
labelled multiplicity matrix with valencies >= 3 in every feasible
stratum.  It does not rely on the contraction argument, and the tests
check ``every_vertex_census`` against it.

``singular_by_filter`` keeps the classes of a full census whose group
order p divides.  The library builds the order-p classes from the
equivariant blow-up closure instead, so comparing the two checks that
closure against a census it did not build.
"""

from __future__ import annotations

import functools
import itertools

from spinelab.graphs import two_edge_connected
from spinelab.spine import GraphClass
from spinelab.symmetry import _vertex_group, automorphism_order, matrix_form


def singular_by_filter(p: int, census: list) -> list:
    """The classes of ``census`` (``every_vertex_census(n)``) with a
    symmetry of order p, as GraphClass, in census order."""
    out = []
    for g in census:
        order = automorphism_order(g)
        if order % p == 0:
            out.append(GraphClass(g, order, tuple(_vertex_group(g))))
    return out


def _blow_ups(rows, vertices):
    """Multiplicity matrices of the one-edge blow-ups at ``vertices`` of a
    canonical form.

    ``rows`` are the form's (loops, lower-triangle) rows.  A blow-up splits
    the darts at one vertex v into sides A and B of at least two darts
    each and joins A to B by a new edge; v keeps side A and side B goes to
    a new last vertex.  Parallel edges and loops are interchangeable, so a
    split is fixed by how many of the edges to each neighbour stay on A
    and how many loops stay on A, stay on B or cross from A to B.
    """
    size = len(rows)
    mult = [[0] * (size + 1) for _ in range(size + 1)]
    for v, row in enumerate(rows):
        mult[v][v] = row[0]
        for u, m in enumerate(row[1:]):
            mult[v][u] = mult[u][v] = m
    for v in vertices:
        loops = mult[v][v]
        neighbours = [u for u in range(size) if u != v and mult[v][u]]
        links = sum(mult[v][u] for u in neighbours)
        for kept in itertools.product(*(range(mult[v][u] + 1) for u in neighbours)):
            on_a = sum(kept)
            for stay_a in range(loops + 1):
                for stay_b in range(loops - stay_a + 1):
                    cross = loops - stay_a - stay_b
                    if on_a + 2 * stay_a + cross < 2 or links - on_a + 2 * stay_b + cross < 2:
                        continue
                    child = [row[:] for row in mult]
                    child[v][v], child[size][size] = stay_a, stay_b
                    child[v][size] = child[size][v] = cross + 1
                    for u, k in zip(neighbours, kept):
                        child[v][u] = child[u][v] = k
                        child[size][u] = child[u][size] = mult[v][u] - k
                    yield child


def every_vertex_census(n: int) -> list:
    """The rank-n census as canonical graphs in order (edges, then form),
    each class blown up at each of its vertices.  Each rank is built once;
    each call returns a new list of its graphs."""
    return list(_census(n))


@functools.lru_cache(maxsize=None)
def _census(n: int) -> tuple:
    found = []
    candidates = [[[n]]]
    while True:
        seen = {matrix_form(mult) for mult in candidates if two_edge_connected(mult)}
        if not seen:
            return tuple(found)
        stratum = [form.graph() for form in sorted(seen)]
        found += stratum
        candidates = (
            child for g in stratum for child in _blow_ups(g.canonical_form.rows, range(g.vertex_count))
        )


def _degree_sequences(v: int, total: int):
    """Non-increasing sequences of length v, entries >= 3, summing to total."""

    def rec(prefix, remaining, cap):
        slots = v - len(prefix)
        if slots == 0:
            if remaining == 0:
                yield tuple(prefix)
            return
        for d in range(min(cap, remaining - 3 * (slots - 1)), 2, -1):
            yield from rec(prefix + [d], remaining - d, d)

    yield from rec([], total, total)


def _multiplicity_assignments(degrees):
    """All (loops, upper multiplicities) with the prescribed valencies."""
    v = len(degrees)

    def rec(i, used, rows):
        if i == v:
            yield rows
            return
        rem = degrees[i] - used[i]
        if rem < 0:
            return
        for loops in range(rem // 2 + 1):
            budget = rem - 2 * loops
            for split in _compositions(budget, [degrees[j] - used[j] for j in range(i + 1, v)]):
                new_used = list(used)
                for k, m in enumerate(split):
                    new_used[i + 1 + k] += m
                yield from rec(i + 1, new_used, rows + [(loops, split)])

    yield from rec(0, [0] * v, [])


def _compositions(total, caps):
    if not caps:
        if total == 0:
            yield ()
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - first, caps[1:]):
            yield (first,) + rest


def _candidates(n: int):
    """Every labelled rank-n multiplicity matrix with valencies >= 3.

    Yields (edges, loops, lower) over the feasible strata: an admissible
    rank-n graph has between n and 3n-3 edges.  ``lower[v][u]`` for u < v
    is the number of edges joining u and v.
    """
    for e in range(n, 3 * n - 2):
        v = e - n + 1
        for degrees in _degree_sequences(v, 2 * e):
            for rows in _multiplicity_assignments(list(degrees)):
                loops = [r[0] for r in rows]
                lower = [[0] * i for i in range(v)]
                for i, (_, split) in enumerate(rows):
                    for k, m in enumerate(split):
                        lower[i + 1 + k][i] = m
                yield e, loops, lower
