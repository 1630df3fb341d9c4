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
reveal; the minimum, and so every form's rows, is the full search's.
A cell of one vertex is placed in its parent's call, a forced step with
no node of its own, and each node reads its candidates' rows off the
matrix with one ``itemgetter`` of its prefix.  Each graph is searched
once, and keeps its form.

Automorphism groups come from the same search.  The automorphisms found
at equal leaves generate the vertex group (McKay and Piperno, "Practical
graph isomorphism, II", 2014): the group maps the first minimal leaf one
to one onto the minimal leaves, and the search prunes a subtree only
where a found automorphism maps a searched one onto it.  That leaf is a
base for them, so the group's order is a product of orbit lengths read
off the generators (``vertex_group_order``), and the group is listed
only where its elements are used (``_vertex_group``).  The dart group
is never listed: it extends the vertex group by the symmetries fixing
every vertex, which permute each bundle of parallel edges and turn
loops, so its order is a product (``automorphism_order``), and it acts
on forests through their bundles, each named by its least edge
(``bundle_names``, ``bundle_perms``).

Two graphs are isomorphic exactly when their forms are equal, that is
when their rows are; a form's bytes, which order forms, are encoded
from the rows only when read.  A vertex map between them is read off
their canonical labellings, the vertex orders that carry each graph
onto its form (``spine`` maps the vertices of its re-rooted faces so);
no dart-level isomorphism is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial, lcm
from operator import itemgetter

from spinelab.graphs import HalfEdgeGraph, build_graph


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
    """The order of a's dart permutation, the lcm of its cycle lengths."""
    return lcm(*map(len, _cycles(a.hperm, range(len(a.hperm)))))


def _orbit(perm, x) -> list:
    """x, perm(x), perm^2(x), ... up to the return to x."""
    out = [x]
    y = perm[x]
    while y != x:
        out.append(y)
        y = perm[y]
    return out


def _cycles(perm, starts) -> list:
    """The cycles of ``perm`` meeting ``starts``, each read by ``_orbit``
    from its first element met, in the order met."""
    seen: set = set()
    out = []
    for x in starts:
        if x not in seen:
            cycle = _orbit(perm, x)
            seen.update(cycle)
            out.append(cycle)
    return out


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
    hperm, vperm, g_sigma, g_target = a.hperm, a.vperm, g.sigma, g.target
    sigma = [0] * len(g_sigma)
    target = [0] * len(g_sigma)
    for h, k in enumerate(hperm):
        sigma[k] = hperm[g_sigma[h]]
        target[k] = vperm[g_target[h]]
    return HalfEdgeGraph(g.vertex_count, tuple(sigma), tuple(target))


def edge_permutation(g: HalfEdgeGraph, a: GraphAutomorphism) -> tuple:
    """Induced permutation of geometric edges."""
    return tuple(g.dart_edge[a.hperm[h1]] for h1, _ in g.edges)


# ---------------------------------------------------------------------------
# canonical forms


@dataclass(frozen=True)
class CanonicalForm:
    """Complete isomorphism invariant; equal rows iff isomorphic graphs.

    ``rows`` is the minimal (loops, lower-triangle) matrix, which is what
    forms compare and hash by, and what ``graph`` realizes with no second
    search; ``labelling[i]`` is the vertex of the graph at canonical
    position i; and ``generators`` are vertex automorphisms of the graph,
    as image tuples, that generate its vertex group.  Neither of the last
    two takes part in comparison or hashing.  ``data``, the rows as JSON
    bytes, is built on first read: forms order by it.
    """

    rows: tuple
    labelling: tuple = field(compare=False, repr=False)
    generators: tuple = field(compare=False, repr=False)

    @cached_property
    def data(self) -> bytes:
        return json.dumps([len(self.rows), [list(r) for r in self.rows]]).encode()

    def __lt__(self, other):
        return self.data < other.data

    def graph(self) -> HalfEdgeGraph:
        """The deterministic representative of the isomorphism class.

        It carries its form, so it is never searched: the identity order
        attains the rows, and the generators move to canonical positions.
        """
        g = realize_multiplicity(
            [row[0] for row in self.rows],
            [row[1:] for row in self.rows],
        )
        position = {v: i for i, v in enumerate(self.labelling)}
        generators = tuple(tuple(position[a[v]] for v in self.labelling) for a in self.generators)
        # seeds the cached property, as if the search had run on g
        vars(g)["canonical_form"] = CanonicalForm(
            self.rows, tuple(range(len(self.rows))), generators
        )
        return g


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
    matrix of ints under simultaneous row and column permutation, with the
    automorphisms of the matrix that the search finds.

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
    so the minimum is unchanged, and only one row per orbit is built.

    A node whose first cell is one vertex has one candidate: the call
    places it, with the same row bound, and goes on one level down, so a
    prune there returns its own depth and a leaf's jump is returned as
    is.  Each node reads its candidates' rows with one reader of its
    prefix (``_row_reader``).

    Returns the rows, a vertex order that attains them, and the vertex
    automorphisms found at tie leaves (``a[v]`` is the image of v).  They
    generate the whole group, which maps the first minimal leaf reached
    one to one onto the minimal leaves: each reached minimal leaf is the
    first's image under one of them, and every minimal leaf is the image
    of a reached one, since each pruned subtree is the image, under a
    found automorphism, of one searched before it.
    """
    n = len(matrix)
    colors = _refined_colors(matrix, keys)
    cells = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    cell_sequence = [cells[c] for c in sorted(cells)]
    best: list = []
    best_order: list = []
    autos: list = []  # (image list, moved set) per automorphism found
    changed = True  # best changed since the last leaf

    def search(order, remaining):
        """Search below ``order``, whose unplaced vertices are the nonempty
        cells ``remaining`` in colour order; return the depth to jump back to."""
        nonlocal best_order, changed
        depth = len(order)
        while True:
            if depth == n:
                if changed:
                    best_order, changed = order, False
                    return depth
                image = list(range(n))
                for v, w in zip(best_order, order):
                    image[v] = w
                autos.append((image, {v for v in best_order if image[v] != v}))
                return next(i for i, (v, w) in enumerate(zip(best_order, order)) if v != w)
            active = remaining[0]
            entries = _row_reader(order)
            if active[1:]:
                # the orbits on the active cell of the found automorphisms
                # that fix the prefix, each labelled by its least vertex,
                # once there are any
                label, read = None, len(autos)
                if read:
                    fixing = [image for image, moved in autos if moved.isdisjoint(order)]
                    if fixing:
                        label = {w: w for w in active}
                        _merge_orbits(label, fixing)
                built, rows = {}, []  # orbits share rows, so one row is built per orbit
                for w in active:
                    orbit = label[w] if label else w
                    row = built.get(orbit)
                    if row is None:
                        mw = matrix[w]
                        row = built[orbit] = (mw[w], *entries(mw))
                    rows.append(row)
                row = min(rows)
            else:
                mw = matrix[active[0]]
                row = (mw[active[0]], *entries(mw))
            if len(best) > depth:
                if row > best[depth]:
                    return depth
                if row < best[depth]:
                    del best[depth:]
            if len(best) == depth:
                best.append(row)
                changed = True
            if active[1:]:
                break
            # order is this call's own list, made for it by its parent
            order.append(active[0])
            remaining = remaining[1:]
            depth += 1
        searched: list = []
        for i, w in enumerate(active):
            if rows[i] != row:
                continue
            if searched:
                if read < len(autos):
                    # an automorphism found below this node that jumped no
                    # further back maps the best leaf, below it too, to the
                    # tie leaf, so it fixes the prefix
                    if label is None:
                        label = {x: x for x in active}
                    _merge_orbits(label, [image for image, _ in autos[read:]])
                    read = len(autos)
                if label and any(label[x] == label[w] for x in searched):
                    continue
            searched.append(w)
            rest = active[:i] + active[i + 1 :]
            jump = search(order + [w], [rest, *remaining[1:]] if rest else remaining[1:])
            if jump < depth:
                return jump
        return depth

    search([], cell_sequence)
    # the closure holds itself through its cell; emptying the cell frees it
    # now rather than at the next collection
    del search
    return tuple(best), tuple(best_order), tuple(tuple(image) for image, _ in autos)


def _row_reader(order: list):
    """A function reading the entries at ``order`` off a matrix row, as a
    tuple; ``itemgetter`` gives one for two indices or more."""
    if order[1:]:
        return itemgetter(*order)
    if order:
        v = order[0]
        return lambda row: (row[v],)
    return lambda row: ()


def _merge_orbits(label: dict, images: list) -> None:
    """Coarsen the orbit labels of ``label``'s keys, each the least vertex
    of its orbit, to the orbits of the group that also contains the
    permutations ``images`` (each maps the keys onto themselves)."""
    for image in images:
        for w in label:
            a, b = label[w], label[image[w]]
            if a != b:
                if b < a:
                    a, b = b, a
                for x in label:
                    if label[x] == b:
                        label[x] = a


def canonical_form(g: HalfEdgeGraph) -> CanonicalForm:
    """The form of g, searched once per graph and kept on it."""
    return g.canonical_form


def matrix_form(mult) -> CanonicalForm:
    """The canonical form of the graph whose symmetric multiplicity matrix
    is ``mult`` (the diagonal counts loops), without building the graph;
    a vertex's valence is its row sum plus its diagonal entry."""
    return CanonicalForm(
        *_min_matrix_data(mult, [(sum(row) + row[v], row[v]) for v, row in enumerate(mult)])
    )


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


# ---------------------------------------------------------------------------
# automorphism groups


def _vertex_group(g: HalfEdgeGraph) -> list:
    """All vertex permutations preserving loop counts and multiplicities:
    the closure of the generators that the canonical search found."""
    generators = canonical_form(g).generators
    identity = tuple(range(g.vertex_count))
    group, seen = [identity], {identity}
    for x in group:
        for a in generators:
            y = tuple(map(a.__getitem__, x))
            if y not in seen:
                seen.add(y)
                group.append(y)
    return group


def vertex_group_order(form: CanonicalForm) -> int:
    """The order of the vertex group, from the search's stabilizer chain.

    ``form.labelling`` is a base and ``form.generators`` a strong
    generating set for it (Sims, "Computational methods in the study of
    permutation groups", 1970): the generators fixing ``labelling[:d]``
    generate that prefix's pointwise stabilizer, so the order is the
    product over d of the orbit length of ``labelling[d]`` under them.

    The labelling is the first minimal leaf.  No tie leaf below a node on
    its path jumps back past that node, since a jump goes to the first
    place where the tie leaf and the labelling differ; so each child of
    the node is searched or pruned.  Of the children whose subtrees hold
    a minimal leaf, each searched one but the labelling's own ends in a
    first tie leaf, whose automorphism fixes the prefix and maps the
    labelling's child onto it; each pruned one is the image of a searched
    one under found automorphisms that fix the prefix.  So the orbit of
    ``labelling[d]`` under the generators fixing ``labelling[:d]`` is its
    whole orbit under the stabilizer of ``labelling[:d]``, and by orbit
    and stabilizer, from the leaf up, those generators generate it.
    """
    order, generators = 1, form.generators
    for v in form.labelling:
        orbit = [v]
        for x in orbit:
            for a in generators:
                if a[x] not in orbit:
                    orbit.append(a[x])
        order *= len(orbit)
        generators = [a for a in generators if a[v] == v]
    return order


def automorphism_order(g: HalfEdgeGraph) -> int:
    """Group order without materializing elements."""
    return vertex_group_order(canonical_form(g)) * _dart_freedom(g)


def _dart_freedom(g: HalfEdgeGraph) -> int:
    """The number of automorphisms fixing every vertex: each bundle of m
    parallel edges permuted freely, m!, and each of l loops at a vertex
    also turned or not, l! 2^l."""
    mult = g.multiplicity
    free = 1
    for v, row in enumerate(mult):
        free *= factorial(row[v]) << row[v]
        for m in row[v + 1 :]:
            free *= factorial(m)
    return free


def bundle_names(g: HalfEdgeGraph) -> tuple:
    """Each edge's bundle, named by the least edge joining the same ends."""
    least: dict = {}
    return tuple(least.setdefault(frozenset(g.edge_endpoints(e)), e) for e in range(g.edge_count))


def bundle_perms(g: HalfEdgeGraph, vperms, names: tuple) -> list:
    """The action of vertex automorphisms on bundles: entry e of each
    names the bundle joining the images of e's ends, by ``names``, the
    graph's ``bundle_names``."""
    ends = [g.edge_endpoints(e) for e in range(g.edge_count)]
    named = {frozenset(uv): b for uv, b in zip(ends, names)}
    return [tuple(named[frozenset((a[u], a[v]))] for u, v in ends) for a in vperms]


def sylow_p_order(order: int, p: int) -> int:
    """Largest power of p dividing the group order."""
    out = 1
    while order % p == 0:
        order //= p
        out *= p
    return out
