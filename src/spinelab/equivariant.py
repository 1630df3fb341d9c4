"""Graphs with a symmetry of prime order p: census, moves, expansions.

A ZpGraph is a half-edge graph together with a distinguished symmetry of
order exactly p.  Equivalence is subgroup conjugacy: two pairs are
identified when some graph isomorphism carries one generator to a power
of the other.  ``ZpGraph.key`` is a complete invariant of that relation,
so classes, closures and blow-ups are deduplicated by lookup.  The census
is the closure of the reduced classes under equivariant blow-ups.  The
reduced classes are built directly from quotient data with no invariant
forest: fixed loops and bundles whose bundles connect the fixed vertices,
or the loops and chords, at least one chord, of one free orbit.

Every builder here (quotient data, blow-ups, collapses, moves) makes a
valid pair by construction, so the constructor checks nothing;
``ZpGraph.from_json`` is the one checked entry, for pairs read from
outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator

from spinelab.graphs import (
    HalfEdgeGraph,
    _acyclic_unions,
    _union,
    build_graph,
    collapse_with_maps,
    is_admissible,
    is_forest,
    json_int,
    json_ints,
)
from spinelab.linalg import check_odd_prime
from spinelab.symmetry import (
    GraphAutomorphism,
    _cycles,
    _min_matrix_data,
    _orbit,
    canonical_form,
    edge_permutation,
    is_automorphism,
    perm_order,
    power,
)


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class ZpGraph:
    """A graph with a chosen symmetry of order exactly p, or the identity.

    The constructor trusts its caller: p an odd prime and the action an
    automorphism of order p or 1.  ``from_json`` is the checked entry for
    anything read from outside.  An identity action arises only in
    degenerate corners of collapse pipelines; everything produced by the
    census has order exactly p.
    """

    graph: HalfEdgeGraph
    action: GraphAutomorphism
    p: int

    @cached_property
    def trivial(self) -> bool:
        """Whether the action is the identity: it fixes every dart."""
        hperm = self.action.hperm
        return hperm == tuple(range(len(hperm)))

    def group(self) -> list:
        """The cyclic group generated by the action, identity first."""
        return [power(self.action, k) for k in range(1 if self.trivial else self.p)]

    def edge_orbits(self) -> list:
        """Orbits of geometric edges, each sorted, in sorted order."""
        ep = edge_permutation(self.graph, self.action)
        return sorted(tuple(sorted(o)) for o in _cycles(ep, range(len(ep))))

    @cached_property
    def key(self) -> tuple:
        """Complete invariant of the class: two ZpGraphs have equal keys
        exactly when some dart-level isomorphism carries the action of one
        to a generator of the other's group; computed once per object."""
        return _equivariant_key(self, frozenset(), {})

    def free_vertex_orbit_count(self) -> int:
        return sum(1 for v in range(self.graph.vertex_count) if self.action.vperm[v] != v) // self.p

    def fixed_vertex_count(self) -> int:
        return sum(1 for v in range(self.graph.vertex_count) if self.action.vperm[v] == v)

    def to_json(self) -> dict:
        data = self.graph.to_json()
        data["action_vperm"] = list(self.action.vperm)
        data["action_hperm"] = list(self.action.hperm)
        data["p"] = self.p
        return data

    @classmethod
    def from_json(cls, data: dict) -> "ZpGraph":
        """The pair of a JSON document, checked: a checked graph, p an odd
        prime, and an automorphism of order p or 1; ValueError if not."""
        graph = HalfEdgeGraph.from_json(data)
        action = GraphAutomorphism(json_ints(data, "action_vperm"), json_ints(data, "action_hperm"))
        p = json_int(data, "p")
        check_odd_prime(p)
        if not is_automorphism(graph, action):
            raise ValueError("action is not an automorphism of the graph")
        order = perm_order(action)
        if order not in (1, p):
            raise ValueError(f"action has order {order}, expected {p}")
        return cls(graph, action, p)


# ---------------------------------------------------------------------------
# the equivariant key


def _equivariant_key(zg: ZpGraph, forest: frozenset, searched: dict) -> tuple:
    """Complete invariant of (zg, forest) up to equivariant isomorphism.

    An action of odd order swaps no two vertices and flips no loop, and a
    bundle with a moved end lies in an orbit of p bundles that a^p fixes.
    So up to conjugation by the automorphisms fixing every vertex, the
    action is fixed by its vertex permutation pi and by how many edges it
    moves between each pair of fixed vertices.  A forest edge between fixed
    vertices is the forest's only edge there, so it is fixed too.  Entry
    (v, u) for a^k is 4b - 2[pi^k(v) = u] - [pi^k(u) = v], where b packs
    the multiplicity, moved and forest counts in radix edges + 1: zero
    exactly when all parts are, and a function of entry (u, v).  Flags are
    subtracted so that a pi-neighbour of a placed vertex has the least row:
    the canonical search's first choice in a free orbit fixes the rest of
    it.  The key is the least canonical matrix over the generators a^k,
    all of which give one matrix when no vertex moves.  Each search is
    looked up in and added to ``searched``, a table of least rows by
    (matrix, keys) that a caller may share across its keys.
    """
    g, a = zg.graph, zg.action
    n, radix = g.vertex_count, g.edge_count + 1
    ep = edge_permutation(g, a)
    base = [[0] * n for _ in range(n)]
    for e in range(g.edge_count):
        u, v = g.edge_endpoints(e)
        step = radix * radix + radix * (ep[e] != e) + (e in forest)
        base[u][v] += step
        if u != v:
            base[v][u] += step
    pi, forms = list(range(n)), []
    for _ in range(zg.p - 1 if zg.free_vertex_orbit_count() else 1):
        pi = [a.vperm[x] for x in pi]
        matrix = tuple(
            tuple(4 * base[v][u] - 2 * (pi[v] == u) - (pi[u] == v) for u in range(n))
            for v in range(n)
        )
        keys = tuple((g.valences[v], matrix[v][v]) for v in range(n))
        if (matrix, keys) not in searched:
            searched[matrix, keys] = _min_matrix_data(matrix, keys)[0]
        forms.append(searched[matrix, keys])
    return zg.p, zg.trivial, g.edge_count, min(forms)


def dedup_equivariant(items: Iterable) -> list:
    """Representatives of equivariant-isomorphism classes, census order:
    the first item of each class, sorted by graph form, fixed vertices,
    edge orbit sizes and key, so the order depends only on the classes."""
    kept: dict = {}
    for zg in items:
        kept.setdefault(zg.key, zg)
    return sorted(kept.values(), key=_census_order)


def _census_order(zg: ZpGraph) -> tuple:
    orbit_sizes = tuple(sorted(len(o) for o in zg.edge_orbits()))
    return canonical_form(zg.graph).data, zg.fixed_vertex_count(), orbit_sizes, zg.key


# ---------------------------------------------------------------------------
# invariant forests, reducedness, equivariant collapse


def invariant_forests(zg: ZpGraph) -> list:
    """All nonempty forests that are unions of edge orbits of the action,
    sorted as ``enumerate_forests`` sorts: each step of the enumeration
    adds a whole acyclic orbit."""
    orbits = [o for o in zg.edge_orbits() if is_forest(zg.graph, o)]
    return _acyclic_unions(zg.graph, orbits)[1:]


def equivariant_collapse(zg: ZpGraph, forest: Iterable) -> ZpGraph:
    """Collapse an invariant forest and transport the action."""
    forest = frozenset(forest)
    ep = edge_permutation(zg.graph, zg.action)
    if {ep[e] for e in forest} != forest:
        raise ValueError("forest is not invariant under the action")
    res = collapse_with_maps(zg.graph, forest)
    n = res.graph.vertex_count
    vperm = [None] * n
    for v in range(zg.graph.vertex_count):
        vperm[res.vertex_map[v]] = res.vertex_map[zg.action.vperm[v]]
    hperm = [None] * res.graph.half_edge_count
    for h in range(zg.graph.half_edge_count):
        if res.dart_map[h] is not None:
            hperm[res.dart_map[h]] = res.dart_map[zg.action.hperm[h]]
    return ZpGraph(res.graph, GraphAutomorphism(tuple(vperm), tuple(hperm)), zg.p)


def reduce_zp(zg: ZpGraph) -> ZpGraph:
    """Collapse maximal invariant forests until none remain."""
    current = zg
    while True:
        forests = invariant_forests(current)
        if not forests:
            return current
        biggest = max(forests, key=lambda f: (len(f), tuple(sorted(f))))
        current = equivariant_collapse(current, biggest)


# ---------------------------------------------------------------------------
# census: the reduced classes and their blow-up closure

# units of reduced quotient data: ("loop", u) one fixed loop at fixed vertex
# u; ("bundle", u, v) an orbit of p parallel edges between fixed vertices, p
# loops when u = v; ("orbit_loop", j) a loop at each vertex of free orbit j;
# ("chord", j, d) the cycle of chords at offset d inside orbit j.  No orbit
# of these is a forest, so every graph they build is reduced.


def _unit_slots(p: int, f: int, m: int) -> list:
    slots = []
    for u in range(f):
        slots.append(("loop", u))
        slots += [("bundle", u, v) for v in range(u, f)]
    for j in range(m):
        slots.append(("orbit_loop", j))
        slots += [("chord", j, d) for d in range(1, (p - 1) // 2 + 1)]
    return slots


def _compositions(total: int, parts: int) -> Iterator[tuple]:
    """Every tuple of ``parts`` >= 1 nonnegative integers summing to
    total, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def realize_quotient_data(p: int, f: int, m: int, units: Iterable) -> ZpGraph:
    """Build the ZpGraph described by a multiset of units with a bundle or
    a chord, so that the action is nontrivial.

    Fixed vertices come first, then each free orbit as a block of p
    consecutive vertices rotated by the action.
    """

    def orbit_vertex(j: int, i: int) -> int:
        return f + j * p + i % p

    edges = []
    image = []  # the edge the action carries each edge to
    for unit in units:
        kind = unit[0]
        if kind == "loop":
            image.append(len(edges))
            edges.append((unit[1], unit[1]))
            continue
        start = len(edges)
        for i in range(p):
            if kind == "bundle":
                edges.append(unit[1:])
            elif kind == "orbit_loop":
                edges.append((orbit_vertex(unit[1], i), orbit_vertex(unit[1], i)))
            else:
                edges.append((orbit_vertex(unit[1], i), orbit_vertex(unit[1], i + unit[2])))
            image.append(start + (i + 1) % p)

    g = build_graph(f + m * p, edges)
    vperm = list(range(f)) + [
        f + j * p + (i + 1) % p for j in range(m) for i in range(p)
    ]
    hperm = [None] * g.half_edge_count
    for e, img in enumerate(image):
        h1, h2 = g.edges[e]
        k1, k2 = g.edges[img]
        # darts 2e (first endpoint) and 2e+1 (second endpoint) line up with
        # the image edge's endpoints by construction
        hperm[h1], hperm[h2] = k1, k2
    return ZpGraph(g, GraphAutomorphism(tuple(vperm), tuple(hperm)), p)


def _stratum_raw(p: int, e: int, f: int, m: int) -> Iterator[ZpGraph]:
    """All admissible reduced graphs with e edges whose vertices are f
    fixed ones (m = 0) or one free orbit (f = 0, m = 1), built from the
    unit counts that describe them.

    Every vertex fixed: a loop separates nothing, and any other edge lies
    in a bundle of p >= 3 parallel edges, so no edge is a bridge.  The
    graph is admissible when the bundles between distinct vertices
    connect the f vertices, and then every vertex meets a bundle: p darts,
    or 2p at the lone vertex of f = 1, which needs one bundle to move
    anything.  So no vertex needs a loop for valency 3, the counts are the
    bundle counts with t >= 1 bundles and pt <= e whose support connects,
    each with every spread of the e - pt loops, and a bundle makes the
    action nontrivial.

    One free orbit: each unit is p edges and adds 2 to every orbit
    vertex's valency, so p | e and k = e / p >= 2 units.  A chord cycle at
    any offset joins the whole orbit, p being prime, and lies on a cycle,
    so the graph is admissible exactly when it has a chord.

    The counts are realized in lexicographic order over ``_unit_slots``,
    so the order of the graphs, and the representatives that
    ``dedup_equivariant`` keeps, depend only on the counts.
    """
    slots = _unit_slots(p, f, m)
    found = []
    if m:
        k = e // p
        if e % p == 0 and k >= 2:
            found = [c for c in _compositions(k, len(slots)) if c[0] < k]
    else:
        bundle_at = [i for i, slot in enumerate(slots) if slot[0] == "bundle"]
        loop_at = [i for i, slot in enumerate(slots) if slot[0] == "loop"]
        pairs = [slots[i][1:] for i in bundle_at]
        # connecting f vertices takes f - 1 bundles
        for t in range(max(1, f - 1), e // p + 1):
            for bundles in _compositions(t, len(pairs)):
                parent = list(range(f))
                joins = sum(_union(parent, u, v) for (u, v), c in zip(pairs, bundles) if c and u != v)
                if joins < f - 1:
                    continue
                for loops in _compositions(e - p * t, f):
                    counts = [0] * len(slots)
                    for i, c in zip(bundle_at + loop_at, bundles + loops):
                        counts[i] = c
                    found.append(tuple(counts))
    for counts in sorted(found):
        yield realize_quotient_data(p, f, m, [s for s, c in zip(slots, counts) for _ in range(c)])


def _reduced_classes(p: int, n: int, max_edges: int) -> list:
    """The reduced classes of rank n with at most max_edges edges.

    A fixed non-loop edge, an orbit of p edges from a fixed vertex to a
    free orbit and an orbit of p edges matching two free orbits are each
    an invariant forest, so a reduced graph has none: its free vertex
    orbits are disconnected from its fixed vertices and from each other.
    So either every vertex is fixed, or every vertex lies in one free
    orbit.  A vertex-free action of odd order fixes no edge either, so
    then p divides the Euler characteristic 1 - n.  `_stratum_raw` builds
    the reduced quotient data of these strata only.
    """
    # with v fixed vertices the graph has n + v - 1 edges, and the only
    # connecting units are p-edge bundles, so it needs at least p(v - 1)
    strata = [(v, 0) for v in range(1, max_edges - n + 2) if p * (v - 1) <= n + v - 1]
    if (n - 1) % p == 0 and n + p - 1 <= max_edges:
        strata.append((0, 1))
    return dedup_equivariant(
        zg for f, m in strata for zg in _stratum_raw(p, n + f + m * p - 1, f, m)
    )


def enumerate_zp_graphs(p: int, n: int, max_edges: int) -> list:
    """Equivariant-isomorphism classes of admissible rank-n graphs with an
    order-p symmetry and at most max_edges edges, in census order.

    The census is the closure of the reduced classes under
    `equivariant_expansions`.  It is complete.  Contracting a
    single-orbit invariant forest of an admissible graph leaves an
    admissible graph of the same rank with fewer edges, and the action
    still has order p there: the collapse is an equivariant homotopy
    equivalence, and a graph automorphism with all valences >= 3 that is
    trivial in Out(F_n) is the identity.  Every nonempty invariant forest
    contains a single-orbit one, so contracting one orbit at a time ends
    at a reduced class within the budget, and each contraction is undone
    by a blow-up of the smaller graph.
    """
    check_odd_prime(p)
    if max_edges > 3 * n - 3:
        raise BudgetExceeded(f"edge budget {max_edges} exceeds 3*rank-3 = {3 * n - 3}")
    classes = _reduced_classes(p, n, max_edges)
    seen = {zg.key for zg in classes}
    # candidates built apart can share a key matrix, so the census
    # searches each (matrix, keys) pair once, in this table
    searched: dict = {}
    for zg in classes:  # the list grows as it is read
        # only each blow-up's graph class is kept, so each candidate is
        # keyed once, without its forest; the first candidate of a class
        # is also the first of its forest class, so the representatives
        # are those that `equivariant_expansions` would give.  A candidate
        # is new, and its key is cached where ``ZpGraph.key`` caches it.
        for blown_up, _ in _blow_up_candidates(zg, max_edges):
            key = vars(blown_up)["key"] = _equivariant_key(blown_up, frozenset(), searched)
            if key not in seen:
                seen.add(key)
                classes.append(blown_up)
    return dedup_equivariant(classes)


def classify_reduced(p: int) -> list:
    """All reduced classes of rank n = 2(p-1), up to equivariant isomorphism.

    Every vertex is fixed, or p divides n - 1 = 2p - 3, which holds only
    at p = 3.
    """
    check_odd_prime(p)
    n = 2 * (p - 1)
    return _reduced_classes(p, n, 3 * n - 3)


# ---------------------------------------------------------------------------
# Nielsen transformations


@dataclass(frozen=True)
class NielsenMove:
    dart: int  # the dart being re-attached (e1)
    along: int  # the dart it slides along (e2)
    result: ZpGraph


def nielsen_moves_for_group(graph: HalfEdgeGraph, group: list) -> list:
    """All moves <e1, e2> of a finite symmetry group acting on the graph.

    Defined on reduced graphs only.  The pair must satisfy: e2 lies
    outside the orbits of e1 and of its reversal, both darts point at the
    same vertex, and every group element fixing e1 fixes e2.  The move
    re-attaches the orbit of e1 so that g.e1 points at the source of
    g.e2.
    """
    return [
        (e1, e2, HalfEdgeGraph(graph.vertex_count, graph.sigma, moved))
        for e1, e2, moved in _moved_targets(graph, group)
    ]


def _moved_targets(graph: HalfEdgeGraph, group: list) -> Iterator[tuple]:
    """(e1, e2, attachment map after the move) for each move <e1, e2>."""
    if not _reduced_for_group(graph, group):
        raise ValueError("moves are defined on reduced graphs only")
    sigma = graph.sigma
    target = graph.target
    orbits = {}
    for h in range(graph.half_edge_count):
        orbits[h] = {g.hperm[h] for g in group}
    for e1 in range(graph.half_edge_count):
        stab1 = [g for g in group if g.hperm[e1] == e1]
        excluded = orbits[e1] | orbits[sigma[e1]]
        for e2 in range(graph.half_edge_count):
            if e2 in excluded or target[e1] != target[e2]:
                continue
            if any(g.hperm[e2] != e2 for g in stab1):
                continue
            new_target = list(target)
            for g in group:
                new_target[g.hperm[e1]] = target[sigma[g.hperm[e2]]]
            yield e1, e2, tuple(new_target)


def _reduced_for_group(graph: HalfEdgeGraph, group: list) -> bool:
    """No edge orbit of the group forms a forest."""
    perms = [edge_permutation(graph, g) for g in group]
    seen = set()
    for e in range(graph.edge_count):
        if e in seen:
            continue
        orbit = {ep[e] for ep in perms}
        seen |= orbit
        if is_forest(graph, orbit):
            return False
    return True


def nielsen_moves(zg: ZpGraph) -> list:
    """Moves of the cyclic group generated by the action."""
    out = []
    for e1, e2, moved in nielsen_moves_for_group(zg.graph, zg.group()):
        result = ZpGraph(moved, zg.action, zg.p)
        out.append(NielsenMove(e1, e2, result))
    return out


def nielsen_closure(zg: ZpGraph, step_cap: int = 10_000) -> list:
    """Classes reachable by moves followed by reduction, the start included.
    Moves from one graph that give the same attachment map build, reduce
    and key one graph; the step cap counts every move."""
    start = reduce_zp(zg)
    classes = {start.key: start}
    queue = [start]
    steps = 0
    while queue:
        current = queue.pop(0)
        graph = current.graph
        seen = set()
        for _, _, target in _moved_targets(graph, current.group()):
            if steps == step_cap:
                raise BudgetExceeded(
                    f"nielsen closure hit its step cap of {step_cap} moves; "
                    f"moves taken: {steps}, classes found so far: {len(classes)}"
                )
            steps += 1
            if target in seen:
                continue
            seen.add(target)
            moved = HalfEdgeGraph(graph.vertex_count, graph.sigma, target)
            candidate = reduce_zp(ZpGraph(moved, current.action, current.p))
            if candidate.key not in classes:
                classes[candidate.key] = candidate
                queue.append(candidate)
    return list(classes.values())


# ---------------------------------------------------------------------------
# equivariant expansions (blow-ups)


def equivariant_expansions(zg: ZpGraph, edge_budget: int) -> list:
    """Admissible blow-ups of zg along one fixed edge or one edge orbit.

    Returns (ZpGraph, forest) pairs up to equivalence; the forest is the
    new edge orbit and collapsing it gives zg back exactly.  A blow-up
    inverts an equivariant collapse, so each one is built at a vertex:

    * fixed edge (e + 1 <= budget): split the dart orbits at a fixed
      vertex v into two blocks of at least 2 darts and move one block to
      a new fixed vertex joined to v by a new fixed edge;
    * star orbit (e + p <= budget): at a fixed vertex v, send each free
      dart orbit either nowhere or one dart to leaf 0 and its a^i-translate
      to leaf i, where p new free vertices hang off v by one new edge
      orbit; leaf 0 needs at least 2 darts and the first orbit sent has
      offset 0, which removes the rotation of the leaves;
    * matching orbit (e + p <= budget): at the least vertex w of a free
      vertex orbit, split its darts into two blocks of at least 2 and move
      one block, with its translates, to p new free vertices matched to
      the orbit by one new edge orbit.

    These are the only single-orbit forests an odd-order action admits,
    so every blow-up arises; the candidates are filtered for
    admissibility and deduplicated.  A trivial action has none.
    """
    return _dedup_expansion_pairs(_blow_up_candidates(zg, edge_budget))


def _blow_up_candidates(zg: ZpGraph, edge_budget: int) -> list:
    """The admissible (ZpGraph, forest) pairs of `equivariant_expansions`
    in the order they are built, before deduplication."""
    if zg.trivial:
        return []
    p, g, a = zg.p, zg.graph, zg.action
    e = g.edge_count
    darts_at = [[] for _ in range(g.vertex_count)]
    for h, v in enumerate(g.target):
        darts_at[v].append(h)
    fixed = [v for v in range(g.vertex_count) if a.vperm[v] == v]
    pairs = []
    if e + 1 <= edge_budget:
        for v in fixed:
            orbits = _cycles(a.hperm, darts_at[v])
            for block in _two_block_splits(orbits, len(darts_at[v])):
                pairs.append(_grow(zg, [v], {h: 0 for o in block for h in o}))
    if e + p <= edge_budget:
        for v in fixed:
            free = [o for o in _cycles(a.hperm, darts_at[v]) if len(o) == p]
            for moved in _star_assignments(free, p):
                pairs.append(_grow(zg, [v] * p, moved))
        for w in range(g.vertex_count):
            anchors = _orbit(a.vperm, w)
            if len(anchors) == 1 or min(anchors) != w:
                continue
            for block in _two_block_splits([[h] for h in darts_at[w]], len(darts_at[w])):
                moved = {x: i for (h,) in block for i, x in enumerate(_orbit(a.hperm, h))}
                pairs.append(_grow(zg, anchors, moved))
    return [pair for pair in pairs if is_admissible(pair[0].graph)]


def _two_block_splits(orbits: list, total: int) -> Iterator[list]:
    """Blocks of orbits leaving out orbits[0], with at least 2 darts on both
    sides; each unordered split of the orbits is yielded once."""
    rest = orbits[1:]
    for mask in range(1, 1 << len(rest)):
        block = [o for i, o in enumerate(rest) if mask >> i & 1]
        size = sum(len(o) for o in block)
        if 2 <= size <= total - 2:
            yield block


def _star_assignments(free: list, p: int) -> Iterator[dict]:
    """Dart-to-leaf maps of the star construction, one per rotation class:
    each orbit stays (None) or has an offset, the first offset being 0."""
    for choice in product([None, *range(p)], repeat=len(free)):
        sent = [c for c in choice if c is not None]
        if len(sent) >= 2 and sent[0] == 0:
            yield {
                h: (j + c) % p
                for orbit, c in zip(free, choice) if c is not None
                for j, h in enumerate(orbit)
            }


def _grow(zg: ZpGraph, anchors: list, moved: dict) -> tuple:
    """zg plus new vertices n_0..n_{k-1} and new edges anchors[i] -- n_i,
    k = len(anchors), with dart h re-attached at n_{moved[h]}.

    The action cycles the new vertices and edges; anchors[i + 1] must be
    the image of anchors[i].  Old darts and vertices keep their indices,
    so collapsing the returned forest gives zg back exactly.
    """
    g, a = zg.graph, zg.action
    n, m, k = g.vertex_count, g.half_edge_count, len(anchors)
    sigma, target, hperm = list(g.sigma), list(g.target), list(a.hperm)
    for h, i in moved.items():
        target[h] = n + i
    for i, u in enumerate(anchors):
        j = m + 2 * ((i + 1) % k)
        sigma += [m + 2 * i + 1, m + 2 * i]
        target += [u, n + i]
        hperm += [j, j + 1]
    vperm = list(a.vperm) + [n + (i + 1) % k for i in range(k)]
    graph = HalfEdgeGraph(n + k, tuple(sigma), tuple(target))
    action = GraphAutomorphism(tuple(vperm), tuple(hperm))
    return ZpGraph(graph, action, zg.p), frozenset(range(g.edge_count, g.edge_count + k))


def _dedup_expansion_pairs(pairs: list) -> list:
    """One pair per class, in order of first appearance; the keys share
    one table of searches."""
    kept: dict = {}
    searched: dict = {}
    for zg, forest in pairs:
        kept.setdefault(_equivariant_key(zg, forest, searched), (zg, forest))
    return list(kept.values())
