"""Exact linear algebra over the prime field F_p.

Ranks come from two places.  The general one is one elimination,
``echelon``.  It keeps a row echelon form of the rows seen so far, one
pivot row per pivot column: a new row is reduced by the pivot row of its
least column until that column has no pivot, then scaled to lead with 1
and kept as the pivot row of that column.  Earlier pivot rows are never
touched, so there is no back-substitution.  The matrices here are
mostly zeros, so rows are sparse dicts ``{column: value}``; a dense row
list is read as one.  The pivot columns are the least columns of the
vectors of the row space, so pivots and ranks do not depend on the row
order.

Differences of two vectors of at most one entry each are not eliminated:
``gain_graph_rank`` reads them as a gain graph (Zaslavsky, "Biased
graphs. II. The three matroids", JCTB 51, 1991) and takes their rank in
one union-find pass.
"""

from __future__ import annotations


def echelon(rows, p) -> dict:
    """A row echelon form of the rows: ``{pivot column: row}``.

    Each row holds 1 at its pivot column and nonzero entries only in
    larger columns, reduced mod p.
    """
    pivots: dict = {}
    for row in rows:
        entries = row.items() if isinstance(row, dict) else enumerate(row)
        row = {c: x for c, v in entries if (x := v % p)}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], p - 2, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            # the pivot leads with 1, so its own column cancels to zero
            f = row[c]
            for k, v in pivot.items():
                x = (row.get(k, 0) - f * v) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
    return pivots


def rank(rows, p) -> int:
    return len(echelon(rows or (), p))


def gain_graph_rank(left, right, p) -> int:
    """Rank of the vectors left[k] - right[k], where each left[k] and
    right[k] is a sparse vector ``{index: value}`` with at most one entry,
    nonzero mod p.

    A vector y is orthogonal to all of them when a y_u = b y_v for each
    a e_u - b e_v with u != v, an edge that fixes the ratio y_v / y_u,
    and y_u = 0 for each vector with one nonzero entry, a half-edge at u;
    two entries at one index add, so they cancel or make a half-edge.
    The orthogonal complement thus has one dimension per balanced
    component of the indices the vectors touch, one with no half-edge
    whose every cycle closes with ratio 1, and the rank is the touched
    indices less the balanced components.  Each index keeps its root and
    its ratio y_index / y_root; joining two components moves the smaller.
    """
    where: dict = {}  # index -> (root, y_index / y_root)
    members: dict = {}  # root -> the indices of its component
    unbalanced = set()  # roots

    def join(u, a, v, b):
        """Record a y_u = b y_v."""
        wu, wv = where.get(u), where.get(v)
        if wu is None:
            if wv is None:
                where[u], where[v] = (u, 1), (u, a * pow(b, p - 2, p) % p)
                members[u] = [u, v]
                return
            u, a, v, b, wu, wv = v, b, u, a, wv, wu
        ru, gu = wu
        if wv is None:
            where[v] = (ru, a * gu * pow(b, p - 2, p) % p)
            members[ru].append(v)
            return
        rv, gv = wv
        if ru == rv:
            if (a * gu - b * gv) % p:
                unbalanced.add(ru)
            return
        # a gu y_ru = b gv y_rv: the smaller component moves under the other root
        if len(members[ru]) < len(members[rv]):
            ru, gu, rv, gv, a, b = rv, gv, ru, gu, b, a
        k = a * gu * pow(b * gv, p - 2, p) % p  # y_rv / y_ru
        moved = members.pop(rv)
        for w in moved:
            where[w] = (ru, where[w][1] * k % p)
        members[ru] += moved
        if rv in unbalanced:
            unbalanced.remove(rv)
            unbalanced.add(ru)

    for x, y in zip(left, right):
        if x and y:
            ((u, a),) = x.items()
            ((v, b),) = y.items()
            if u != v:
                join(u, a, v, b)
                continue
            if not (a - b) % p:
                continue
        for u in x or y:
            w = where.get(u)
            if w is None:
                where[u] = (u, 1)
                members[u] = [u]
                unbalanced.add(u)
            else:
                unbalanced.add(w[0])
    return len(where) - len(members) + len(unbalanced)


def check_odd_prime(p: int) -> int:
    """Return p, or raise ValueError unless it is an odd prime."""
    if p < 3 or any(p % k == 0 for k in range(2, int(p**0.5) + 1)):
        raise ValueError("p must be an odd prime")
    return p
