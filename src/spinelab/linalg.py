"""Exact linear algebra over the prime field F_p.

Every rank comes from one elimination, ``echelon``.  It keeps the
reduced row echelon form of the rows seen so far: a new row is reduced
by the pivot rows whose columns it meets, its least column becomes its
pivot, and that column is cleared from the earlier pivot rows.  The
matrices here are mostly zeros, so rows are sparse dicts
``{column: value}``; a dense row list is read as one.  The reduced form
is unique, so pivots and ranks do not depend on the row order.
"""

from __future__ import annotations


def echelon(rows, p) -> dict:
    """Reduced row echelon form of the rows: ``{pivot column: row}``.

    Each row holds its entries off its pivot, whose own entry is 1, and
    is zero in every other pivot column.
    """
    pivots: dict = {}
    for row in rows:
        entries = row.items() if isinstance(row, dict) else enumerate(row)
        row = {c: v % p for c, v in entries if v % p}
        for c in [c for c in row if c in pivots]:
            _add_multiple(row, -row.pop(c), pivots[c], p)
        if not row:
            continue
        c = min(row)
        inv = pow(row.pop(c), p - 2, p)
        row = {k: v * inv % p for k, v in row.items()}
        for other in pivots.values():
            if c in other:
                _add_multiple(other, -other.pop(c), row, p)
        pivots[c] = row
    return pivots


def _add_multiple(row: dict, f: int, other: dict, p) -> None:
    """row += f * other mod p, keeping only nonzero entries."""
    for k, v in other.items():
        x = (row.get(k, 0) + f * v) % p
        if x:
            row[k] = x
        else:
            del row[k]


def rank(rows, p) -> int:
    return len(echelon(rows or (), p))


def check_odd_prime(p: int) -> int:
    """Return p, or raise ValueError unless it is an odd prime."""
    if p < 3 or any(p % k == 0 for k in range(2, int(p**0.5) + 1)):
        raise ValueError("p must be an odd prime")
    return p
