"""Half-edge multigraphs: admissibility, forests and forest collapse.

A finite multigraph is stored as a set of darts (half-edges) ``0..2m-1``
together with a fixed-point-free involution ``sigma`` pairing each dart
with its reversal and a map ``target`` sending each dart to the vertex it
points at.  Geometric edges are the involution orbits, so loops and
parallel edges are fully supported and symmetries are free to reverse
edges.  All values are immutable; every operation is a pure function.

A graph is checked once, where it comes in: the constructor trusts its
caller, since every builder here makes a valid graph by construction,
and ``HalfEdgeGraph.from_json`` is the checked entry for a graph read
from outside (corpus and ``--input`` files).

Connectivity is one flat union-find, a parent list read by ``_root``
with path halving; ``_union`` links the larger root under the smaller,
so each class's root is its least vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

Forest = frozenset  # frozenset of geometric-edge indices


class NotAForestError(ValueError):
    """Raised when an edge set expected to be acyclic contains a cycle."""


def _root(parent: list, x: int) -> int:
    """The root of x's class in the union-find ``parent``, halving the
    path on the way up."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _union(parent: list, x: int, y: int) -> bool:
    """Merge the classes of x and y under the lesser root; return False
    if they were one class already."""
    x, y = _root(parent, x), _root(parent, y)
    if x == y:
        return False
    if y < x:
        x, y = y, x
    parent[y] = x
    return True


@dataclass(frozen=True)
class HalfEdgeGraph:
    """Multigraph as (vertices, darts, involution, attachment).

    ``sigma`` must be a fixed-point-free involution of the dart indices and
    ``target`` a total map from darts to vertices.  The dart pair
    ``{h, sigma[h]}`` is a geometric edge joining ``target[h]`` and
    ``target[sigma[h]]``; both darts of a loop point at the same vertex.
    The constructor trusts its caller to pass such data; ``from_json`` is
    the checked entry for anything read from outside.
    """

    vertex_count: int
    sigma: tuple
    target: tuple

    @property
    def half_edge_count(self) -> int:
        return len(self.sigma)

    @property
    def edge_count(self) -> int:
        return len(self.sigma) // 2

    @cached_property
    def edges(self) -> tuple:
        """Geometric edges as dart pairs (h, sigma[h]) with h < sigma[h]."""
        return tuple(
            (h, self.sigma[h]) for h in range(len(self.sigma)) if h < self.sigma[h]
        )

    @cached_property
    def dart_edge(self) -> tuple:
        """Map dart index -> geometric edge index."""
        lookup = [0] * len(self.sigma)
        for e, (h1, h2) in enumerate(self.edges):
            lookup[h1] = lookup[h2] = e
        return tuple(lookup)

    def edge_endpoints(self, e: int) -> tuple:
        h1, h2 = self.edges[e]
        return (self.target[h1], self.target[h2])

    def is_loop(self, e: int) -> bool:
        u, v = self.edge_endpoints(e)
        return u == v

    @cached_property
    def valences(self) -> tuple:
        """Valence of each vertex: the number of darts pointing at it."""
        return tuple(self.target.count(v) for v in range(self.vertex_count))

    @cached_property
    def multiplicity(self) -> tuple:
        """Symmetric vertex-by-vertex edge multiplicity; diagonal counts loops."""
        n, target = self.vertex_count, self.target
        mat = [[0] * n for _ in range(n)]
        for h, s in enumerate(self.sigma):
            if h < s:
                u, v = target[h], target[s]
                mat[u][v] += 1
                if u != v:
                    mat[v][u] += 1
        return tuple(map(tuple, mat))

    @cached_property
    def canonical_form(self):
        """The canonical form of the graph (see ``symmetry``), searched once."""
        from spinelab.symmetry import matrix_form

        return matrix_form(self.multiplicity)

    def to_json(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "half_edges": self.half_edge_count,
            "sigma": list(self.sigma),
            "target": list(self.target),
        }

    @classmethod
    def from_json(cls, data: dict) -> "HalfEdgeGraph":
        """The graph of a JSON document, checked: a vertex count, darts
        paired by a fixed-point-free involution and pointing at vertices,
        every vertex the target of a dart, and a ``half_edges`` field that
        counts them; ValueError if not.  So the vertex count is at most
        the dart count, and no size is read off a huge count."""
        vertex_count = json_int(data, "vertices")
        sigma, target = json_ints(data, "sigma"), json_ints(data, "target")
        if vertex_count < 0:
            raise ValueError("vertex count must be >= 0")
        m = len(sigma)
        if len(target) != m:
            raise ValueError("sigma and target must have equal length")
        if m % 2 != 0:
            raise ValueError("dart count must be even")
        for h, s in enumerate(sigma):
            if not 0 <= s < m or sigma[s] != h:
                raise ValueError("sigma is not an involution")
            if s == h:
                raise ValueError("sigma must be fixed-point free")
        for v in target:
            if not 0 <= v < vertex_count:
                raise ValueError("target vertex out of range")
        if len(set(target)) != vertex_count:
            raise ValueError("every vertex must be the target of a dart")
        if m != json_int(data, "half_edges"):
            raise ValueError("half_edges field inconsistent with sigma length")
        return cls(vertex_count, sigma, target)


def json_int(data: dict, key: str) -> int:
    """``data[key]``, checked to be an integer.

    A document that is not a JSON object, or a value of the wrong shape,
    raises ValueError; a missing key raises KeyError.
    """
    value = _json_object(data)[key]
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, got {type(value).__name__}")
    return value


def json_ints(data: dict, key: str) -> tuple:
    """``data[key]`` as a tuple, checked to be a list of integers."""
    value = _json_object(data)[key]
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ValueError(f"{key!r} must be a list of integers")
    return tuple(value)


def _json_object(data) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    return data


def build_graph(vertex_count: int, edge_list: Iterable) -> HalfEdgeGraph:
    """Build a graph from (u, v) endpoint pairs; loops allowed as (v, v).

    Edge i gets darts 2i (pointing at u) and 2i+1 (pointing at v), so the
    geometric edge order matches the input order.
    """
    sigma, target = [], []
    for u, v in edge_list:
        k = len(sigma)
        sigma += [k + 1, k]
        target += [u, v]
    return HalfEdgeGraph(vertex_count, tuple(sigma), tuple(target))


def rank(g: HalfEdgeGraph) -> int:
    """First Betti number: edges - vertices + number of components."""
    parent = list(range(g.vertex_count))
    components, target = g.vertex_count, g.target
    for h, s in enumerate(g.sigma):
        if h < s and _union(parent, target[h], target[s]):
            components -= 1
    return g.edge_count - g.vertex_count + components


def is_admissible(g: HalfEdgeGraph) -> bool:
    """Connected, every vertex of valency >= 3, and no separating edge."""
    if any(d < 3 for d in g.valences):
        return False
    return two_edge_connected(g.multiplicity)


def two_edge_connected(lower) -> bool:
    """Whether a multigraph is connected and has no bridge.

    ``lower[v][u]`` for u < v is the number of edges joining u and v; no
    other entry is read, since loops never connect or separate (a full
    symmetric multiplicity matrix will do).  One iterative depth-first
    pass computes low-links over the neighbour bundles (Tarjan, "A note on
    finding the bridges of a graph", 1974): the tree bundle from u to w is
    a bridge iff low[w] > disc[u] and it holds a single edge.
    """
    n = len(lower)
    if n == 0:
        return False
    bundles = [[] for _ in range(n)]
    for v in range(1, n):
        row = lower[v]
        for u in range(v):
            if row[u]:
                bundles[u].append((v, row[u]))
                bundles[v].append((u, row[u]))
    disc = [0] * n  # discovery times from 1; 0 marks an unvisited vertex
    low = [0] * n
    disc[0] = low[0] = visited = 1
    # (vertex, parent, multiplicity of the parent bundle, unread bundles)
    stack = [(0, -1, 0, iter(bundles[0]))]
    while stack:
        u, parent, m, unread = stack[-1]
        for w, k in unread:
            if w == parent:
                continue
            if disc[w]:
                if disc[w] < low[u]:
                    low[u] = disc[w]
            else:
                visited += 1
                disc[w] = low[w] = visited
                stack.append((w, u, k, iter(bundles[w])))
                break
        else:
            stack.pop()
            if parent >= 0:
                if low[u] > disc[parent] and m == 1:
                    return False
                if low[u] < low[parent]:
                    low[parent] = low[u]
    return visited == n


def is_forest(g: HalfEdgeGraph, edges: Iterable) -> bool:
    parent = list(range(g.vertex_count))
    return all(_union(parent, *g.edge_endpoints(e)) for e in edges)


def enumerate_forests(g: HalfEdgeGraph, edges: Optional[Iterable] = None) -> list:
    """All acyclic subsets of the edges of g (of ``edges``, if given), the
    empty forest included.

    Output is sorted by size, then lexicographically on the sorted edge
    tuples, so the result is canonical for a given graph.
    """
    pool = range(g.edge_count) if edges is None else sorted(edges)
    return _acyclic_unions(g, [(e,) for e in pool if not g.is_loop(e)])


def _acyclic_unions(g: HalfEdgeGraph, parts: list) -> list:
    """The acyclic unions of the disjoint, each acyclic, edge tuples
    ``parts``, the empty one included, as forests sorted by size and then
    by their sorted edges.

    A stack entry is a union of parts, the position of the next part it
    may take and the component label of each vertex under its edges; a
    part is taken when each of its edges joins two components, whose
    labels it merges, so no entry shares or copies a union-find.
    """
    ends = [[g.edge_endpoints(e) for e in part] for part in parts]
    found = []
    stack = [((), 0, tuple(range(g.vertex_count)))]
    while stack:
        union, start, labels = stack.pop()
        found.append(union)
        for i in range(start, len(parts)):
            merged = labels
            for u, v in ends[i]:
                a, b = merged[u], merged[v]
                if a == b:
                    break
                merged = tuple([a if x == b else x for x in merged])
            else:
                stack.append((union + parts[i], i + 1, merged))
    found.sort(key=lambda f: (len(f), sorted(f)))
    return list(map(frozenset, found))


@dataclass(frozen=True)
class CollapseResult:
    graph: HalfEdgeGraph
    vertex_map: tuple  # old vertex -> new vertex
    dart_map: tuple  # old dart -> new dart, or None for collapsed darts
    edge_map: tuple  # old edge -> new edge, or None for collapsed edges


def collapse_with_maps(g: HalfEdgeGraph, forest: Iterable) -> CollapseResult:
    """Contract each edge of the forest to a point, with relabeling maps.

    Surviving darts keep their relative order, and so surviving edges
    keep theirs; vertices of the quotient are numbered by their least
    original vertex, so repeated runs are bit-identical and an empty
    forest collapses to the identical graph.
    """
    forest = sorted(set(forest))
    for e in forest:
        if not 0 <= e < g.edge_count:
            raise ValueError(f"edge index {e} out of range")
    parent = list(range(g.vertex_count))
    dead = set()
    for e in forest:
        h1, h2 = g.edges[e]
        if not _union(parent, g.target[h1], g.target[h2]):
            raise NotAForestError("cycle detected in forest argument")
        dead.update((h1, h2))

    # a class's root is its least vertex, numbered before the rest of it
    vertex_map, classes = [], 0
    for v in range(g.vertex_count):
        r = _root(parent, v)
        if r == v:
            vertex_map.append(classes)
            classes += 1
        else:
            vertex_map.append(vertex_map[r])
    dart_map = [None] * g.half_edge_count
    kept = [h for h in range(g.half_edge_count) if h not in dead]
    for new, old in enumerate(kept):
        dart_map[old] = new
    quotient = HalfEdgeGraph(
        classes,
        tuple(dart_map[g.sigma[old]] for old in kept),
        tuple(vertex_map[g.target[old]] for old in kept),
    )
    edge_map, survivors = [], 0
    for h1, _ in g.edges:
        if h1 in dead:
            edge_map.append(None)
        else:
            edge_map.append(survivors)
            survivors += 1
    return CollapseResult(quotient, tuple(vertex_map), tuple(dart_map), tuple(edge_map))


def collapse(g: HalfEdgeGraph, forest: Iterable) -> HalfEdgeGraph:
    """Quotient of g by a forest; rank is preserved."""
    return collapse_with_maps(g, forest).graph

