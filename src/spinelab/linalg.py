"""Exact linear algebra over the prime field F_p.

Matrices are lists of row lists of ints; all arithmetic is reduced mod p.
Sizes here are tiny (a few dozen rows), so plain Gaussian elimination is
the right tool.
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


def rank(matrix, p) -> int:
    if not matrix or not matrix[0]:
        return 0
    return len(rref(matrix, p)[1])


def pair_kernel_dim(a, b, cols_a: int, cols_b: int, p) -> int:
    """dim ker [a | -b]: the pairs (u, v) with a u = b v.

    ``a`` and ``b`` share their rows; the widths are passed because a
    matrix with no rows does not record them.
    """
    joined = [list(ra) + [-x for x in rb] for ra, rb in zip(a, b)]
    return cols_a + cols_b - rank(joined, p)


def check_odd_prime(p: int) -> int:
    """Return p, or raise ValueError unless it is an odd prime."""
    if p < 3 or any(p % k == 0 for k in range(2, int(p**0.5) + 1)):
        raise ValueError("p must be an odd prime")
    return p


def nullspace(matrix, cols: int, p):
    """Canonical kernel basis (one vector per free column, rref-derived).

    The width is passed because a matrix with no rows does not record it;
    its kernel is then the whole space.
    """
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


def mat_mul(a, b, p):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(k):
            if a[i][j]:
                f = a[i][j]
                row = b[j]
                orow = out[i]
                for c in range(m):
                    orow[c] = (orow[c] + f * row[c]) % p
    return out


def is_zero_matrix(a, p) -> bool:
    return all(x % p == 0 for row in a for x in row)
