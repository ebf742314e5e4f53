import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzkit.errors import InputError
from syzkit.exactalg import (
    CROSSCHECK_CHAR,
    DEFAULT_CHAR,
    FieldSpec,
    SparseRows,
    complement_basis,
    in_span,
    kernel_basis,
    matrix_inverse,
    rank,
    rref,
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
    k = kernel_basis([[1, 2], [2, 4]], 7)
    assert k.shape == (1, 2)
    assert list(k[0]) == [5, 1]


def test_in_span_example():
    ok, w = in_span([3, 6], [[1], [2]], 7)
    assert ok and list(w) == [3]
    ok, w = in_span([1, 0], [[1], [2]], 7)
    assert not ok and w is None


def test_zero_and_empty_matrices():
    p = 32003
    r, piv = rref(np.zeros((3, 4), dtype=np.int64), p)
    assert r.shape == (0, 4) and piv == []
    assert rank(np.zeros((0, 5), dtype=np.int64), p) == 0
    k = kernel_basis(np.zeros((0, 3), dtype=np.int64), p)
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
    assert np.array_equal(r1, r2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_kernel_properties(nrows, ncols, seed):
    p = 32003
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(nrows, ncols), dtype=np.int64)
    k = kernel_basis(a, p)
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
    assert piv1 == piv2 and np.array_equal(r1, r2)


def test_rref_idempotent():
    p = 32003
    rng = np.random.default_rng(3)
    a = rng.integers(0, p, size=(30, 17), dtype=np.int64)
    r, piv = rref(a, p)
    r2, piv2 = rref(r, p)
    assert piv == piv2 and np.array_equal(r, r2)


def test_in_span_witness_random():
    p = 32003
    rng = np.random.default_rng(11)
    m = rng.integers(0, p, size=(9, 4), dtype=np.int64)
    x = rng.integers(0, p, size=4, dtype=np.int64)
    v = (m @ x) % p
    ok, w = in_span(v, m, p)
    assert ok
    assert not np.any((m @ w - v) % p)


def test_complement_basis_properties():
    p = 7
    sub = np.array([[1, 1, 0]], dtype=np.int64)
    full = np.array([[1, 0, 1], [0, 1, 6], [1, 1, 0]], dtype=np.int64)
    comp = complement_basis(sub, full, p)
    assert comp.shape[0] == 1
    # comp together with sub spans sub+full, and comp is independent of sub
    assert rank(np.vstack([sub, comp]), p) == 2
    joint = np.vstack([sub, full])
    assert rank(joint, p) == 2
    # canonical: depends only on the row spaces
    comp2 = complement_basis(2 * sub % p, np.vstack([full, (3 * full) % p]), p)
    assert np.array_equal(comp, comp2)


def test_complement_of_zero_sub():
    p = 7
    full = np.array([[2, 4], [1, 2]], dtype=np.int64)
    comp = complement_basis(np.zeros((0, 2), dtype=np.int64), full, p)
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
    assert np.array_equal(r1, r2)
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
    assert ker.dtype == np.int64
    assert np.array_equal(ker, kernel_basis(a, p))
    comp = complement_basis(SparseRows(rows[:15], 25), SparseRows(rows[15:], 25), p)
    assert comp.dtype == np.int64
    assert np.array_equal(comp, complement_basis(a[:15], a[15:], p))
    assert np.array_equal(comp, complement_basis(SparseRows(rows[:15], 25), a[15:], p))
    assert np.array_equal(
        complement_basis(SparseRows([], 25), SparseRows(rows, 25), p),
        complement_basis(np.zeros((0, 25), dtype=np.int64), a, p),
    )
    assert rows == snapshot


def test_inverse_and_span_at_the_largest_prime():
    p = LARGEST_CHAR
    rng = np.random.default_rng(2)
    a = rng.integers(0, p, size=(6, 6), dtype=np.int64)
    ainv = matrix_inverse(a, p)
    # products of two entries near 2**31 overflow int64 sums: check in ints
    prod = a.astype(object) @ ainv.astype(object) % p
    assert np.array_equal(prod, np.eye(6, dtype=object))
    m = rng.integers(0, p, size=(9, 4), dtype=np.int64)
    x = rng.integers(0, p, size=4, dtype=np.int64)
    v = m.astype(object) @ x.astype(object) % p
    ok, w = in_span(v.astype(np.int64), m, p)
    assert ok
    assert not np.any((m.astype(object) @ w.astype(object) - v) % p)
