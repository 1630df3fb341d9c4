"""The canonical search as it was before forced singleton steps and row
readers: every node, a single vertex's included, is a recursive call, and
each row is built by mapping the node's prefix over the matrix row.  The
tests compare ``symmetry._min_matrix_data`` with it triple for triple:
rows, labelling and generators.
"""

from spinelab.symmetry import _merge_orbits, _refined_colors


def min_matrix_data(matrix: list, keys: list):
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
        # the orbits on the active cell of the found automorphisms that fix
        # the prefix, each labelled by its least vertex, once there are any
        label, read = None, len(autos)
        if read and active[1:]:
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
                row = built[orbit] = (mw[w], *map(mw.__getitem__, order))
            rows.append(row)
        row = min(rows)
        if len(best) > depth:
            if row > best[depth]:
                return depth
            if row < best[depth]:
                del best[depth:]
        if len(best) == depth:
            best.append(row)
            changed = True
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
    return tuple(best), tuple(best_order), tuple(tuple(image) for image, _ in autos)
