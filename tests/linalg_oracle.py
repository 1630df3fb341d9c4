"""Gauss-Jordan elimination over F_p, dense and sparse, kept as test oracles.

The library eliminates sparse rows in ``spinelab.linalg.echelon`` to a
row echelon form, with no back-substitution.  Here are the two reduced
forms it replaced: the dense column-by-column loop, with the rank read
off it the same way, and ``sparse_rref``, the sparse reduced form the
library kept before, which is unique and so compares the spans of two
row sets.  Also here is what the library does not form: kernel bases,
which the equalizer tests read, dense products and pair kernels.  Tests
compare the library with these.
"""

from __future__ import annotations


def rref(matrix, p):
    """Reduced row echelon form and pivot columns."""
    mat = [[x % p for x in row] for row in matrix]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return mat, pivots


def sparse_rref(rows, p) -> dict:
    """Reduced row echelon form of sparse or dense rows: ``{pivot column:
    row}``.  Each row holds its entries off its pivot, whose own entry is
    1, and is zero in every other pivot column.  A new row is reduced by
    the pivot rows whose columns it meets, its least column becomes its
    pivot, and that column is cleared from the earlier pivot rows."""
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


def rank(matrix, p) -> int:
    if not matrix or not matrix[0]:
        return 0
    return len(rref(matrix, p)[1])


def nullspace(matrix, cols: int, p):
    """Canonical kernel basis (one vector per free column, rref-derived)."""
    mat, pivots = rref(matrix, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * cols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-mat[r][f]) % p
        basis.append(vec)
    return basis


def pair_kernel_dim(a, b, cols_a: int, cols_b: int, p) -> int:
    """dim ker [a | -b]: the pairs (u, v) with a u = b v.

    ``a`` and ``b`` share their rows; the widths are passed because a
    matrix with no rows does not record them.
    """
    joined = [list(ra) + [-x for x in rb] for ra, rb in zip(a, b)]
    return cols_a + cols_b - rank(joined, p)


def mat_mul(a, b, p):
    if not a or not b:
        return []
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
