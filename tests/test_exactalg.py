import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzkit.errors import InputError
from syzkit.exactalg import (
    CROSSCHECK_CHAR,
    DEFAULT_CHAR,
    FieldSpec,
    ReducedRows,
    SparseRows,
    complement_basis,
    in_span,
    kernel_basis,
    matrix_inverse,
    rank,
    rref,
    sparse_rows,
)

LARGEST_CHAR = 2**31 - 1  # the largest prime FieldSpec accepts


def naive_rref(m, p):
    """Reference single-row implementation, no blocking, no numpy tricks."""
    a = [[int(x) % p for x in row] for row in np.atleast_2d(np.asarray(m, dtype=np.int64))]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c] % p), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return np.array(a[:r], dtype=np.int64).reshape(r, ncols), pivots


def dense(m: SparseRows) -> np.ndarray:
    """A row-form result as a dense int64 array."""
    out = np.zeros((len(m.rows), m.ncols), dtype=np.int64)
    for i, row in enumerate(m.rows):
        for c, v in row.items():
            out[i, c] = v
    return out


def test_field_spec_validates_prime():
    FieldSpec(32003)
    FieldSpec(2)
    FieldSpec(LARGEST_CHAR)
    with pytest.raises(InputError):
        FieldSpec(32004)
    with pytest.raises(InputError):
        FieldSpec(1)
    # out of range; the last is far too large for trial division
    for p in (2**31 + 11, 18446744073709551629):
        with pytest.raises(InputError):
            FieldSpec(p)


def test_default_chars_are_prime_and_3_mod_4():
    for p in (DEFAULT_CHAR, CROSSCHECK_CHAR):
        FieldSpec(p)
        assert p % 4 == 3


def test_rref_spec_kernel_example():
    # kernel of [[1,2],[2,4]] over F_7 is spanned by (-2, 1) = (5, 1)
    k = dense(kernel_basis([[1, 2], [2, 4]], 7))
    assert k.shape == (1, 2)
    assert list(k[0]) == [5, 1]


def test_in_span_example():
    # v is {row: value}; absent rows, and multiples of p, are zero
    assert in_span({0: 3, 1: 6}, [[1], [2]], 7)
    assert in_span({0: 10, 1: -1}, [[1], [2]], 7)
    assert in_span({}, [[1], [2]], 7) and in_span({1: 14}, [[1], [2]], 7)
    assert not in_span({0: 1}, [[1], [2]], 7)
    assert not in_span({0: 1}, SparseRows([{}, {}], 0), 7)
    for v in ({2: 1}, {-1: 1}, {2: 0}):
        with pytest.raises(ValueError, match="row index"):
            in_span(v, [[1], [2]], 7)


def test_zero_and_empty_matrices():
    p = 32003
    r, piv = rref(np.zeros((3, 4), dtype=np.int64), p)
    assert dense(r).shape == (0, 4) and piv == []
    assert rank(np.zeros((0, 5), dtype=np.int64), p) == 0
    k = dense(kernel_basis(SparseRows([], 3), p))
    assert k.shape == (3, 3)
    assert np.array_equal(k, np.eye(3, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 9),
    st.integers(1, 9),
    st.sampled_from([2, 7, 101, 32003]),
    st.integers(0, 2**32 - 1),
)
def test_rref_matches_naive(nrows, ncols, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(nrows, ncols), dtype=np.int64)
    r1, p1 = rref(a, p)
    r2, p2 = naive_rref(a, p)
    assert p1 == p2
    assert np.array_equal(dense(r1), r2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_kernel_properties(nrows, ncols, seed):
    p = 32003
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(nrows, ncols), dtype=np.int64)
    k = dense(kernel_basis(a, p))
    assert rank(a, p) + k.shape[0] == ncols
    if k.size:
        assert not np.any((a @ k.T) % p)
        assert rank(k, p) == k.shape[0]


def test_blocking_invariance_on_tall_matrix():
    # a tall matrix whose column-0 pivot only arrives at row 700
    p = 101
    rng = np.random.default_rng(7)
    a = rng.integers(0, p, size=(1100, 40), dtype=np.int64)
    # plant a dependency and an early sparse column
    a[:, 0] = 0
    a[0, 0] = 0
    a[700, 0] = 5  # pivot for column 0 appears only in the second block
    r1, piv1 = rref(a, p)
    r2, piv2 = naive_rref(a, p)
    assert piv1 == piv2 and np.array_equal(dense(r1), r2)


def test_rref_idempotent():
    p = 32003
    rng = np.random.default_rng(3)
    a = rng.integers(0, p, size=(30, 17), dtype=np.int64)
    r, piv = rref(a, p)
    r2, piv2 = rref(r, p)
    assert piv == piv2 and np.array_equal(dense(r), dense(r2))


def test_in_span_witness_random():
    # v = m @ x for a random witness x is in the span; v + e_0 is not, as
    # the 4 columns of m and e_0 have rank 5
    p = 32003
    rng = np.random.default_rng(11)
    m = rng.integers(0, p, size=(9, 4), dtype=np.int64)
    x = rng.integers(0, p, size=4, dtype=np.int64)
    v = dict(enumerate((m @ x) % p))
    assert rank(np.column_stack([m, np.eye(9, dtype=np.int64)[0]]), p) == 5
    assert in_span(v, m, p)
    assert not in_span({**v, 0: v[0] + 1}, m, p)


def test_complement_basis_properties():
    p = 7
    sub = np.array([[1, 1, 0]], dtype=np.int64)
    full = np.array([[1, 0, 1], [0, 1, 6], [1, 1, 0]], dtype=np.int64)
    comp = dense(complement_basis(sub, full, p))
    assert comp.shape[0] == 1
    # comp together with sub spans sub+full, and comp is independent of sub
    assert rank(np.vstack([sub, comp]), p) == 2
    joint = np.vstack([sub, full])
    assert rank(joint, p) == 2
    # canonical: depends only on the row spaces
    comp2 = dense(complement_basis(2 * sub % p, np.vstack([full, (3 * full) % p]), p))
    assert np.array_equal(comp, comp2)


def test_complement_of_zero_sub():
    p = 7
    full = np.array([[2, 4], [1, 2]], dtype=np.int64)
    comp = dense(complement_basis(SparseRows([], 2), full, p))
    assert comp.shape == (1, 2)
    assert list(comp[0]) == [1, 2]


def _sparse_block(rng, nrows, ncols, density, p):
    """A random nrows x ncols block with about `density` nonzeros, plus
    rows that are combinations of two of its rows."""
    mask = rng.random((nrows, ncols)) < density
    blk = np.where(mask, rng.integers(1, p, size=(nrows, ncols)), 0)
    i, j = rng.integers(0, nrows, size=2)
    c1, c2 = (int(c) for c in rng.integers(1, p, size=2))
    # reduce each product before adding, so int64 never overflows
    combo = ((c1 * blk[i]) % p + (c2 * blk[j]) % p) % p
    return np.vstack([blk, combo, blk[i]])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 16), st.integers(1, 4)), min_size=1, max_size=3
    ),
    st.sampled_from([0.01, 0.03, 0.1]),
    st.sampled_from([2, 3, 32003, LARGEST_CHAR]),
    st.integers(0, 2**32 - 1),
)
def test_sparse_rref_matches_naive(blocks, density, p, seed):
    # tall blocks placed on a diagonal, with zero rows, a zero column
    # between blocks, and the rows shuffled so the blocks interleave
    rng = np.random.default_rng(seed)
    pieces = [
        _sparse_block(rng, ncols * tall, ncols, density, p) for ncols, tall in blocks
    ]
    ncols = sum(b.shape[1] + 1 for b in pieces)
    a = np.zeros((sum(b.shape[0] for b in pieces) + 2, ncols), dtype=np.int64)
    r = c = 0
    for b in pieces:
        a[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1] + 1
    a = a[rng.permutation(a.shape[0])]
    r1, p1 = rref(a, p)
    r2, p2 = naive_rref(a, p)
    assert p1 == p2
    assert np.array_equal(dense(r1), r2)
    assert rank(a, p) == len(p2)


def test_row_form_equals_dense_form():
    p = 101
    rng = np.random.default_rng(5)
    a = np.where(rng.random((40, 25)) < 0.1, rng.integers(1, p, size=(40, 25)), 0)
    a[7] = (3 * a[3] + a[30]) % p  # a dependent row
    rows = [{int(c): int(a[r, c]) for c in np.flatnonzero(a[r])} for r in range(40)]
    # unreduced values must be reduced, and multiples of p count as zero
    rows[0][24] = rows[0].get(24, 0) - p
    rows[1][0] = 5 * p
    rows[2] = {c: v + p for c, v in rows[2].items()}
    snapshot = [dict(row) for row in rows]

    ker = kernel_basis(SparseRows(rows, 25), p)
    assert isinstance(ker, SparseRows)
    assert ker == kernel_basis(a, p)
    comp = complement_basis(SparseRows(rows[:15], 25), SparseRows(rows[15:], 25), p)
    assert isinstance(comp, SparseRows)
    assert comp == complement_basis(a[:15], a[15:], p)
    assert comp == complement_basis(SparseRows(rows[:15], 25), a[15:], p)
    assert complement_basis(SparseRows([], 25), SparseRows(rows, 25), p) == complement_basis(
        SparseRows([], 25), a, p
    )
    assert rows == snapshot


def test_reduced_input_rows_are_never_written():
    # reduced rows with lead value 1 need no work in the forward pass, and
    # the back pass then clears column 1 from the first one
    p = 7
    rows = [{0: 1, 1: 1, 2: 3}, {1: 1, 2: 2}]
    snapshot = [dict(row) for row in rows]
    m = SparseRows(rows, 3)
    assert rref(m, p) == (SparseRows([{0: 1, 2: 1}, {1: 1, 2: 2}], 3), [0, 1])
    assert kernel_basis(m, p) == SparseRows([{2: 1, 0: 6, 1: 5}], 3)
    assert complement_basis(SparseRows(rows[1:], 3), m, p) == SparseRows([{0: 1, 2: 1}], 3)
    assert in_span({0: 1, 1: 2}, m, p) is True
    # a ReducedRows list is handed on as it is: in_span must neither write
    # to its rows nor put the extra column into the list itself
    marked = ReducedRows(rows, 3, p)
    assert in_span({0: 1, 1: 2}, marked, p) is True
    assert marked.rows is rows
    square = [{0: 1, 1: 1}, {1: 1}]
    assert matrix_inverse(SparseRows(square, 2), p) == [[1, 6], [0, 1]]
    assert rows == snapshot and square == [{0: 1, 1: 1}, {1: 1}]

def test_only_rows_marked_reduced_for_the_char_skip_the_scan():
    p = 7
    rows = [{0: 9, 1: -1}, {0: 7, 2: 3}, {1: 14}]
    want = [{0: 2, 1: 6}, {2: 3}, {}]
    dense_form = [[9, -1, 0], [7, 0, 3], [0, 14, 0]]
    # plain rows are reduced, and multiples of p drop out
    assert sparse_rows(SparseRows(rows, 3), p).rows == want
    assert rank(SparseRows(rows, 3), p) == rank(dense_form, p) == 2
    # rows marked reduced for another char are reduced too
    assert sparse_rows(ReducedRows(rows, 3, 11), p).rows == want
    assert rank(ReducedRows(rows, 3, 11), p) == 2
    # rows marked reduced for p are handed on as they are
    marked = ReducedRows(want, 3, p)
    assert sparse_rows(marked, p) is marked
    assert rank(marked, p) == 2
    assert rows == [{0: 9, 1: -1}, {0: 7, 2: 3}, {1: 14}]


def test_inverse_and_span_at_the_largest_prime():
    p = LARGEST_CHAR
    rng = np.random.default_rng(2)
    a = rng.integers(0, p, size=(6, 6), dtype=np.int64)
    ainv = matrix_inverse(a, p)
    # products of two entries near 2**31 overflow int64 sums: check in ints
    prod = a.astype(object) @ np.array(ainv, dtype=object) % p
    assert np.array_equal(prod, np.eye(6, dtype=object))
    m = rng.integers(0, p, size=(9, 4), dtype=np.int64)
    x = rng.integers(0, p, size=4, dtype=np.int64)
    v = dict(enumerate(m.astype(object) @ x.astype(object) % p))
    assert in_span(v, m, p)
    assert in_span({i: c - 3 * p for i, c in v.items()}, m, p)
    assert not in_span({**v, 8: v[8] + 1}, m, p)


def _as_form(a: np.ndarray, form: str):
    """The matrix a as SparseRows, as a list of int rows, or as it is."""
    if form == "sparse":
        rows = [{c: v for c, v in enumerate(row) if v} for row in a.tolist()]
        return SparseRows(rows, a.shape[1])
    return a.tolist() if form == "list" else a


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 7),
    st.sampled_from([0.3, 0.7, 1.0]),
    st.sampled_from([2, 3, 32003, LARGEST_CHAR]),
    st.sampled_from(["sparse", "list", "ndarray"]),
    st.integers(0, 2**32 - 1),
)
def test_row_form_results_match_naive_rref(nrows, ncols, density, p, form, seed):
    # entries in (-2p, 2p), so every function reduces its input itself
    rng = np.random.default_rng(seed)
    mask = rng.random((nrows, ncols)) < density
    a = np.where(mask, rng.integers(-2 * p + 1, 2 * p, size=(nrows, ncols)), 0)
    m = _as_form(a, form)
    snapshot = [dict(row) for row in m.rows] if form == "sparse" else None

    reduced, pivots = naive_rref(a, p)
    r, piv = rref(m, p)
    assert piv == pivots
    assert np.array_equal(dense(r), reduced)

    # the kernel read off the naive RREF: e_f minus the pivot entries at f
    free = [c for c in range(ncols) if c not in pivots]
    want = np.zeros((len(free), ncols), dtype=np.int64)
    for i, f in enumerate(free):
        want[i, f] = 1
        for k, c in enumerate(pivots):
            want[i, c] = -reduced[k, f] % p
    assert np.array_equal(dense(kernel_basis(m, p)), want)

    # the complement of the first row: the naive RREF rows of the whole
    # matrix whose pivots are not that row's pivot
    sub = a[:1]
    sub_piv = naive_rref(sub, p)[1]
    keep = [k for k, c in enumerate(pivots) if c not in sub_piv]
    assert np.array_equal(dense(complement_basis(_as_form(sub, form), m, p)), reduced[keep])

    # in_span against the naive RREF of [a | v], for a v in the span and a
    # random one, given as {row: value} with unreduced values and some of
    # the zero rows left out
    x = rng.integers(0, p, size=ncols)
    for v in [(a.astype(object) @ x.astype(object)) % p, rng.integers(0, p, size=nrows)]:
        aug_piv = naive_rref(np.column_stack([a % p, np.asarray(v, dtype=np.int64)]), p)[1]
        vec = {i: int(c) - p for i, c in enumerate(v) if c or i % 2}
        assert in_span(vec, m, p) == (ncols not in aug_piv)

    # the inverse of the leading square block, from the naive RREF of [b | 1]
    n = min(nrows, ncols)
    b = a[:n, :n]
    aug_reduced, aug_piv = naive_rref(np.hstack([b, np.eye(n, dtype=np.int64)]), p)
    if aug_piv[:n] == list(range(n)):
        assert matrix_inverse(_as_form(b, form), p) == aug_reduced[:, n:].tolist()
    else:
        with pytest.raises(ValueError):
            matrix_inverse(_as_form(b, form), p)

    if snapshot is not None:
        assert m.rows == snapshot


def test_kernel_basis_stays_sparse():
    # one row of 3000 ones: the kernel has 2999 rows of two entries each,
    # where a dense result would take 2999 x 3000 int64s, 72 MB
    m = SparseRows([{c: 1 for c in range(3000)}], 3000)
    tracemalloc.start()
    try:
        ker = kernel_basis(m, DEFAULT_CHAR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert ker.ncols == 3000 and len(ker.rows) == 2999
    assert ker.rows[0] == {1: 1, 0: DEFAULT_CHAR - 1}
    assert m.rows[0] == {c: 1 for c in range(3000)}
