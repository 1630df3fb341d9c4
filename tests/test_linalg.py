"""The sparse row echelon elimination against the Gauss-Jordan oracles."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from spinelab import linalg


@st.composite
def matrices(draw):
    """(p, width, dense matrix) over F_3, F_5 or F_7: random rows with many
    zeros, all-zero rows, full row rank, or rows with repeated and negated
    copies; entries range outside [0, p)."""
    p = draw(st.sampled_from([3, 5, 7]))
    cols = draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.integers(-2 * p, 2 * p))
    kind = draw(st.sampled_from(["random", "zeros", "full", "repeats"]))
    if kind == "zeros":
        return p, cols, [[0] * cols for _ in range(draw(st.integers(0, 5)))]
    if kind == "full":
        # distinct leading columns with leading entries nonzero mod p
        leads = sorted(draw(st.sets(st.integers(0, cols - 1), max_size=cols))) if cols else []
        mat = [
            [0] * c
            + [draw(st.integers(1, p - 1)) + p * draw(st.integers(-1, 1))]
            + [draw(entry) for _ in range(cols - c - 1)]
            for c in leads
        ]
        return p, cols, draw(st.permutations(mat))
    mat = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=6))
    if kind == "repeats" and mat:
        copies = draw(
            st.lists(
                st.tuples(st.integers(0, len(mat) - 1), st.sampled_from([1, -1, 2, p + 1])),
                min_size=1,
                max_size=4,
            )
        )
        mat = draw(st.permutations(mat + [[s * x for x in mat[i]] for i, s in copies]))
    return p, cols, mat


@settings(max_examples=400)
@given(matrices())
@example((3, 4, []))  # no rows
@example((5, 0, [[], [], []]))  # zero width
@example((7, 3, [[0, 0, 0], [0, 0, 0]]))  # all zeros
@example((5, 3, [[0, 2, 1], [3, 0, 4], [1, 1, 1]]))  # full rank
@example((3, 3, [[1, 2, 0], [-1, -2, 0], [1, 2, 0], [0, 1, 1]]))  # repeated and negated
@example((7, 2, [[-9, 15], [22, -1]]))  # entries outside [0, p)
def test_sparse_kernel_matches_dense_gauss_jordan(case):
    p, cols, mat = case
    reduced = linalg.echelon(mat, p)
    want, pivots = oracle.rref(mat, p)
    assert sorted(reduced) == pivots
    for c, row in reduced.items():
        # each pivot row leads with 1 at its key, and all its other keys are larger
        assert row[c] == 1 and all(k > c and 0 < v < p for k, v in row.items() if k != c)
    # the pivot rows span the input's row space: the reduced forms agree
    assert oracle.sparse_rref(reduced.values(), p) == oracle.sparse_rref(mat, p)
    # the sparse oracle is the dense one: pivot rows in pivot order, then zero rows
    got = [[0] * cols for _ in mat]
    for r, (c, row) in enumerate(sorted(oracle.sparse_rref(mat, p).items())):
        got[r][c] = 1
        for k, v in row.items():
            got[r][k] = v
    assert got == want
    assert linalg.rank(mat, p) == oracle.rank(mat, p)


@settings(max_examples=100)
@given(matrices())
def test_earlier_pivot_rows_are_never_touched(case):
    """No back-substitution: the pivot rows of every prefix of the rows
    are pivot rows of the whole, unchanged."""
    p, _, mat = case
    whole = linalg.echelon(mat, p).items()
    for k in range(len(mat)):
        assert linalg.echelon(mat[:k], p).items() <= whole, k


@settings(max_examples=100)
@given(matrices(), st.randoms(use_true_random=False))
def test_echelon_does_not_depend_on_row_order(case, rng):
    """The pivot columns and the span do not depend on the row order; the
    pivot rows may."""
    p, _, mat = case
    want = linalg.echelon(mat, p)
    rng.shuffle(mat)
    got = linalg.echelon(mat, p)
    assert set(got) == set(want)
    assert oracle.sparse_rref(got.values(), p) == oracle.sparse_rref(want.values(), p)


@settings(max_examples=100)
@given(matrices())
def test_echelon_reads_columns_by_their_order_not_their_positions(case):
    # the boundary rows of quotient cells are keyed by cell index
    p, _, mat = case
    rows = [{3 * c + 7: x for c, x in enumerate(row)} for row in mat]
    want = {
        3 * c + 7: {3 * k + 7: v for k, v in row.items()}
        for c, row in linalg.echelon(mat, p).items()
    }
    assert linalg.echelon(rows, p) == want


@st.composite
def two_entry_columns(draw):
    """(p, left, right): aligned one-entry-or-empty vectors over at most
    five indices, so that indices repeat, left and right often share one
    (and cancel or not), and edges close cycles whose ratio may not be 1;
    values range outside [0, p) but are nonzero mod p."""
    p = draw(st.sampled_from([3, 5, 7]))
    value = st.integers(1, p - 1).flatmap(lambda v: st.sampled_from([v, v - p, v + p]))
    entry = st.one_of(st.just({}), st.builds(lambda u, v: {u: v}, st.integers(0, 4), value))
    pairs = draw(st.lists(st.tuples(entry, entry), max_size=9))
    return p, [x for x, _ in pairs], [y for _, y in pairs]


@settings(max_examples=400)
@given(two_entry_columns())
@example((3, [{0: 2}], [{0: 2}]))  # one index, cancelling
@example((5, [{0: 2}], [{0: 1}]))  # one index, not cancelling: a half-edge
@example((3, [{0: 1}, {}], [{}, {1: 2}]))  # half-edges on either side
@example((5, [{1: 1}, {2: 1}, {0: 1}], [{0: 2}, {1: 3}, {2: 6}]))  # a cycle of ratio 1
@example((5, [{1: 1}, {2: 1}, {0: 1}], [{0: 2}, {1: 3}, {2: 1}]))  # a cycle of ratio 3
@example((3, [{1: 1}, {0: 1}], [{0: 1}, {1: 1}]))  # a swap: a two-cycle of ratio 1
@example((3, [{1: 2}, {0: 2}], [{0: 1}, {1: 1}]))  # a signed swap: ratio 4 = 1 mod 3
@example((5, [{1: 2}, {0: 2}], [{0: 1}, {1: 1}]))  # ratio 4 mod 5
@example((7, [{1: 1}, {3: 1}, {3: 2}], [{0: 1}, {2: 1}, {1: 1}]))  # two trees joined
def test_gain_graph_rank_is_the_rank_of_the_differences(case):
    p, left, right = case
    rows = []
    for x, y in zip(left, right):
        row = dict(x)
        for k, v in y.items():
            row[k] = row.get(k, 0) - v
        rows.append(row)
    assert linalg.gain_graph_rank(left, right, p) == linalg.rank(rows, p)
