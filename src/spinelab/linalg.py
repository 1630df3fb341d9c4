"""Exact linear algebra over the prime field F_p.

Every rank comes from one elimination, ``echelon``.  It keeps a row
echelon form of the rows seen so far, one pivot row per pivot column: a
new row is reduced by the pivot row of its least column until that
column has no pivot, then scaled to lead with 1 and kept as the pivot
row of that column.  Earlier pivot rows are never touched, so there is
no back-substitution.  The matrices here are mostly zeros, so rows are
sparse dicts ``{column: value}``; a dense row list is read as one.  The
pivot columns are the least columns of the vectors of the row space, so
pivots and ranks do not depend on the row order.
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


def check_odd_prime(p: int) -> int:
    """Return p, or raise ValueError unless it is an odd prime."""
    if p < 3 or any(p % k == 0 for k in range(2, int(p**0.5) + 1)):
        raise ValueError("p must be an odd prime")
    return p
