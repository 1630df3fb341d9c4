"""Graph isomorphism, canonical forms and automorphism groups.

Isomorphism here is at the dart level: a pair of permutations (one of the
vertices, one of the darts) commuting with the edge involution and
compatible with the attachment map.  Edge reversals and permutations of
parallel edges therefore count as distinct symmetries, which is what makes
the rose with n loops have 2^n * n! of them.

Two graphs are isomorphic exactly when their multiplicity data (loop
counts plus off-diagonal edge multiplicities) agree up to a vertex
relabeling, so canonical forms are computed on that data by refinement
plus ordered backtracking, pruned by the automorphisms that equal leaves
reveal; the minimum, and so every form's bytes, is the full search's.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Iterable, Iterator, Optional

from spinelab.graphs import HalfEdgeGraph, build_graph


class AutGroupTooLarge(RuntimeError):
    """The automorphism group exceeds the configured element cap."""


@dataclass(frozen=True)
class GraphAutomorphism:
    """Dart-level symmetry: vertex permutation plus dart permutation.

    Also used for isomorphisms between distinct graphs, in which case the
    permutations map source indices to target indices.
    """

    vperm: tuple
    hperm: tuple

    def __lt__(self, other):
        return (self.vperm, self.hperm) < (other.vperm, other.hperm)


def identity_automorphism(g: HalfEdgeGraph) -> GraphAutomorphism:
    return GraphAutomorphism(
        tuple(range(g.vertex_count)), tuple(range(g.half_edge_count))
    )


def compose(a: GraphAutomorphism, b: GraphAutomorphism) -> GraphAutomorphism:
    """(a . b)(x) = a(b(x))."""
    return GraphAutomorphism(
        tuple(a.vperm[v] for v in b.vperm),
        tuple(a.hperm[h] for h in b.hperm),
    )


def inverse(a: GraphAutomorphism) -> GraphAutomorphism:
    vinv = [0] * len(a.vperm)
    hinv = [0] * len(a.hperm)
    for i, v in enumerate(a.vperm):
        vinv[v] = i
    for i, h in enumerate(a.hperm):
        hinv[h] = i
    return GraphAutomorphism(tuple(vinv), tuple(hinv))


def power(a: GraphAutomorphism, k: int) -> GraphAutomorphism:
    result = GraphAutomorphism(tuple(range(len(a.vperm))), tuple(range(len(a.hperm))))
    base = a
    if k < 0:
        base, k = inverse(a), -k
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


def perm_order(a: GraphAutomorphism) -> int:
    n = len(a.hperm)
    seen = [False] * n
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = a.hperm[x]
            length += 1
        order = order * length // _gcd(order, length)
    return order


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def is_automorphism(g: HalfEdgeGraph, a: GraphAutomorphism) -> bool:
    if sorted(a.vperm) != list(range(g.vertex_count)):
        return False
    if sorted(a.hperm) != list(range(g.half_edge_count)):
        return False
    for h in range(g.half_edge_count):
        if a.hperm[g.sigma[h]] != g.sigma[a.hperm[h]]:
            return False
        if g.target[a.hperm[h]] != a.vperm[g.target[h]]:
            return False
    return True


def apply_to_graph(g: HalfEdgeGraph, a: GraphAutomorphism) -> HalfEdgeGraph:
    """Relabel g along a; equals g exactly when a is an automorphism."""
    hinv = [0] * g.half_edge_count
    for i, h in enumerate(a.hperm):
        hinv[h] = i
    sigma = tuple(a.hperm[g.sigma[hinv[h]]] for h in range(g.half_edge_count))
    target = tuple(a.vperm[g.target[hinv[h]]] for h in range(g.half_edge_count))
    return HalfEdgeGraph(g.vertex_count, sigma, target)


def edge_permutation(g: HalfEdgeGraph, a: GraphAutomorphism) -> tuple:
    """Induced permutation of geometric edges."""
    return tuple(g.dart_edge[a.hperm[h1]] for h1, _ in g.edges)


# ---------------------------------------------------------------------------
# canonical forms


@dataclass(frozen=True)
class CanonicalForm:
    """Complete isomorphism invariant; equal bytes iff isomorphic graphs.

    ``rows`` is the minimal (loops, lower-triangle) matrix that ``data``
    encodes, kept so that ``graph`` needs no second search; it takes no
    part in comparison or hashing.
    """

    data: bytes
    rows: tuple = field(compare=False, repr=False)

    def __lt__(self, other):
        return self.data < other.data

    def graph(self) -> HalfEdgeGraph:
        """The deterministic representative of the isomorphism class."""
        return realize_multiplicity(
            [row[0] for row in self.rows],
            [row[1:] for row in self.rows],
        )


def _refined_colors(matrix: list, keys: list) -> list:
    """Colour refinement of a square matrix, starting from the ranks of
    ``keys``; a nonzero entry (v, u) makes u a neighbour of v."""
    n = len(matrix)
    colors = _rank_keys(keys)
    while True:
        keys = [
            (
                colors[v],
                tuple(
                    sorted(
                        (colors[u], matrix[v][u]) for u in range(n) if u != v and matrix[v][u]
                    )
                ),
            )
            for v in range(n)
        ]
        new = _rank_keys(keys)
        if new == colors:
            return colors
        colors = new


def _rank_keys(keys: list) -> list:
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _min_matrix_data(matrix: list, keys: list):
    """Lexicographically minimal (diagonal, lower triangle) of a square
    matrix of ints under simultaneous row and column permutation.

    The minimum ranges over vertex orderings grouped by the colours refined
    from ``keys``, so it is a relabeling invariant as long as the keys are;
    the full matrix makes it complete when entry (u, v) is a function of
    entry (v, u), as for the symmetric multiplicity matrix.

    A node searches only the candidates whose row is least among its
    siblings', since any other candidate ends in a larger sequence.  The
    search also prunes by symmetry (McKay and Piperno, "Practical graph
    isomorphism, II", 2014).  A leaf reached without changing ``best`` has
    the best leaf's rows, so mapping one order onto the other is an
    automorphism fixing their common prefix: the rest of the tie leaf's
    branch is an image of the best leaf's, searched before, and the search
    jumps back to the prefix.  A candidate in the orbit of a searched
    sibling, under the found automorphisms that fix the node's prefix,
    roots an image of that sibling's subtree.  Images have the same rows,
    so the minimum is unchanged.
    """
    n = len(matrix)
    colors = _refined_colors(matrix, keys)
    cells = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    cell_sequence = [cells[c] for c in sorted(cells)]

    best: list = []
    best_order: list = []
    autos: list = []  # vertex automorphisms found at tie leaves, as dicts
    changed = True  # best changed since the last leaf

    def search(order, remaining):
        """Search below ``order``; return the depth to jump back to."""
        nonlocal best_order, changed
        depth = len(order)
        if depth == n:
            if changed:
                best_order, changed = order, False
                return depth
            autos.append(dict(zip(best_order, order)))
            return next(i for i, (v, w) in enumerate(zip(best_order, order)) if v != w)
        pos = next(i for i, pool in enumerate(remaining) if pool)
        active = remaining[pos]
        rows = [(matrix[w][w],) + tuple(matrix[w][u] for u in order) for w in active]
        row = min(rows)
        if len(best) > depth:
            if row > best[depth]:
                return depth
            if row < best[depth]:
                del best[depth:]
        if len(best) == depth:
            best.append(row)
            changed = True
        searched, fixing, read = set(), [], 0
        for i, w in enumerate(active):
            if rows[i] != row:
                continue
            if autos and searched:
                fixing += [a for a in autos[read:] if all(a[v] == v for v in order)]
                read, orbit = len(autos), [w]
                for x in orbit:
                    orbit += [a[x] for a in fixing if a[x] not in orbit]
                if searched.intersection(orbit):
                    continue
            searched.add(w)
            nxt = list(remaining)
            nxt[pos] = active[:i] + active[i + 1 :]
            jump = search(order + [w], nxt)
            if jump < depth:
                return jump
        return depth

    search([], list(cell_sequence))
    return tuple(best)


def canonical_form(g: HalfEdgeGraph) -> CanonicalForm:
    mult = g.multiplicity
    data = _min_matrix_data(mult, [(g.valences[v], mult[v][v]) for v in range(g.vertex_count)])
    payload = json.dumps([g.vertex_count, [list(r) for r in data]]).encode()
    return CanonicalForm(payload, data)


def realize_multiplicity(loops: list, lower: list) -> HalfEdgeGraph:
    """Graph from loop counts and lower-triangular multiplicities.

    Edges are laid out pair-by-pair in lexicographic (u, v) order with
    u <= v, so the realization is deterministic.
    """
    n = len(loops)
    edge_list = []
    for u in range(n):
        edge_list += [(u, u)] * loops[u]
        for v in range(u + 1, n):
            edge_list += [(u, v)] * lower[v][u]
    return build_graph(n, edge_list)


def graph_signature(g: HalfEdgeGraph) -> tuple:
    """(vertices, edges, loops, degree multiset): a cheap invariant."""
    return (g.vertex_count, g.edge_count, g.total_loops(), g.degree_multiset())


# ---------------------------------------------------------------------------
# automorphism groups


@dataclass(frozen=True)
class AutGroup:
    """Full element list of the dart-level automorphism group."""

    graph: HalfEdgeGraph
    elements: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def edge_perms(self) -> list:
        return [edge_permutation(self.graph, a) for a in self.elements]

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "generators": [
                {"vperm": list(a.vperm), "hperm": list(a.hperm)} for a in self.elements
            ],
        }


def _vertex_perms(g: HalfEdgeGraph) -> list:
    """All vertex permutations preserving loop counts and multiplicities."""
    n = g.vertex_count
    mult = g.multiplicity
    colors = _refined_colors(mult, [(g.valences[v], mult[v][v]) for v in range(n)])
    out = []

    def extend(mapping: list):
        i = len(mapping)
        if i == n:
            out.append(tuple(mapping))
            return
        for w in range(n):
            if w in mapping or colors[w] != colors[i]:
                continue
            if mult[i][i] != mult[w][w]:
                continue
            if any(mult[i][j] != mult[w][mapping[j]] for j in range(i)):
                continue
            extend(mapping + [w])

    extend([])
    return out


def automorphism_order(g: HalfEdgeGraph) -> int:
    """Group order without materializing elements."""
    return len(_vertex_perms(g)) * _dart_freedom(g)


def _dart_freedom(g: HalfEdgeGraph) -> int:
    free = 1
    mult = g.multiplicity
    for v in range(g.vertex_count):
        loops = mult[v][v]
        free *= factorial(loops) * 2**loops
        for u in range(v):
            free *= factorial(mult[v][u])
    return free


def automorphism_group(g: HalfEdgeGraph, element_cap: int = 10**6) -> AutGroup:
    """All dart-level automorphisms; fails loudly past the element cap."""
    return _group_from_vertex_perms(g, _vertex_perms(g), element_cap)


def _group_with_order_divisible_by(g: HalfEdgeGraph, p: int) -> Optional[AutGroup]:
    """The automorphism group of g if p divides its order, else None, from
    one enumeration of the vertex automorphisms."""
    vperms = _vertex_perms(g)
    if len(vperms) * _dart_freedom(g) % p:
        return None
    return _group_from_vertex_perms(g, vperms)


def _group_from_vertex_perms(
    g: HalfEdgeGraph, vperms: list, element_cap: int = 10**6
) -> AutGroup:
    total = len(vperms) * _dart_freedom(g)
    if total > element_cap:
        raise AutGroupTooLarge(
            f"automorphism group has {total} elements, cap is {element_cap}"
        )

    # edge classes: loops per vertex and parallel bundles per vertex pair
    loops_at: dict = {}
    bundles: dict = {}
    for e in range(g.edge_count):
        u, v = g.edge_endpoints(e)
        if u == v:
            loops_at.setdefault(u, []).append(e)
        else:
            bundles.setdefault((min(u, v), max(u, v)), []).append(e)

    def dart_towards(e: int, v: int) -> int:
        h1, h2 = g.edges[e]
        return h1 if g.target[h1] == v else h2

    elements = []
    for vp in vperms:
        # per-class assignment choices, expanded via cartesian product
        class_choices = []
        for v in sorted(loops_at):
            src = loops_at[v]
            dst = loops_at[vp[v]]
            options = []
            for perm in itertools.permutations(dst, len(src)):
                for flips in itertools.product((False, True), repeat=len(src)):
                    options.append(("loop", src, perm, flips))
            class_choices.append(options)
        for (u, v) in sorted(bundles):
            src = bundles[(u, v)]
            key = (min(vp[u], vp[v]), max(vp[u], vp[v]))
            dst = bundles[key]
            options = []
            for perm in itertools.permutations(dst, len(src)):
                options.append(("bundle", src, perm, (u, v)))
            class_choices.append(options)

        for combo in itertools.product(*class_choices):
            hperm = [None] * g.half_edge_count
            for choice in combo:
                if choice[0] == "loop":
                    _, src, perm, flips = choice
                    for e, f, flip in zip(src, perm, flips):
                        h1, h2 = g.edges[e]
                        k1, k2 = g.edges[f]
                        if flip:
                            k1, k2 = k2, k1
                        hperm[h1], hperm[h2] = k1, k2
                else:
                    _, src, perm, (u, v) = choice
                    for e, f in zip(src, perm):
                        hu, hv = dart_towards(e, u), dart_towards(e, v)
                        hperm[hu] = dart_towards(f, vp[u])
                        hperm[hv] = dart_towards(f, vp[v])
            elements.append(GraphAutomorphism(vp, tuple(hperm)))

    elements.sort()
    group = AutGroup(g, tuple(elements))
    assert group.order == total
    return group


def elements_of_order(group: AutGroup, k: int) -> list:
    if k < 1:
        raise ValueError("order must be >= 1")
    return [a for a in group.elements if perm_order(a) == k]


def sylow_p_order(group, p: int) -> int:
    """Largest power of p dividing the group order."""
    order = group.order if isinstance(group, AutGroup) else int(group)
    out = 1
    while order % p == 0:
        order //= p
        out *= p
    return out


# ---------------------------------------------------------------------------
# orbits of a group action


@dataclass(frozen=True)
class Orbit:
    representative: object
    members: tuple
    stabilizer_order: int


def orbits(group: AutGroup, items: Iterable, action: Callable, key=None) -> list:
    """Partition items into orbits with deterministic representatives.

    ``action(a, x)`` must implement a group action; this is spot-checked on
    the identity and on a sample of composed pairs.  The representative of
    each orbit is its key-minimal member.
    """
    if key is None:
        key = _default_key
    items = sorted(set(items), key=key)
    if not items:
        return []

    ident = identity_automorphism(group.graph)
    for x in items:
        if action(ident, x) != x:
            raise ValueError("action does not fix items under the identity")
    sample = group.elements[: min(4, len(group.elements))]
    for a in sample:
        for b in sample:
            x = items[0]
            if action(compose(a, b), x) != action(a, action(b, x)):
                raise ValueError("action is not compatible with composition")

    seen = set()
    out = []
    for x in items:
        kx = key(x)
        if kx in seen:
            continue
        members = {}
        stab = 0
        for a in group.elements:
            y = action(a, x)
            members[key(y)] = y
            if y == x:
                stab += 1
        for k in members:
            seen.add(k)
        ordered = tuple(sorted(members.values(), key=key))
        out.append(Orbit(ordered[0], ordered, stab))
    return out


def _default_key(x):
    if isinstance(x, frozenset):
        return tuple(sorted(x))
    if isinstance(x, tuple):
        return tuple(_default_key(y) for y in x)
    return x


# ---------------------------------------------------------------------------
# dart-level isomorphism search


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
