"""Exact sparse linear algebra over a prime field F_p.

Everything in this module is integer arithmetic mod p on Python ints; no
floating point ever reaches a result.  Characteristics are limited to
2 <= p < 2**31, so every entry, and every product of two entries, fits in
the int64 arrays handed back to callers.

There is one elimination engine, in the style of Faugère–Lachartre, on
sparse rows: dicts {column: value} of the nonzero entries.  The forward
pass (`_forward`) reduces each incoming row's lead term against the pivot
rows found so far, until its lead column is new or the row vanishes.  The
back pass (`_backward`) then clears every other pivot column from each
pivot row, in decreasing pivot order, which gives the reduced row echelon
form.  `rank` needs only the forward pass; `kernel_basis` and
`complement_basis` read the sparse RREF rows, so they never make dense
the rows they do not return.  The matrices of this package are mostly
well under 1% nonzero, so fill-in stays small.

Every public function takes a dense matrix (anything numpy can turn into
a 2-D integer array) or a `SparseRows`, and reduces its entries mod p
once.  The dicts of a `SparseRows` are never modified.

Reduced row echelon form is unique for a given column order, so every
basis handed out here (kernels, row spaces, complements) is canonical and
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

DEFAULT_CHAR = 32003
CROSSCHECK_CHAR = 31991
CHAR_LIMIT = 2**31


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_p.  `char` is validated on construction."""

    char: int

    def __post_init__(self):
        from .errors import InputError

        # the range check comes first: trial division of a huge number
        # would run for ages before rejecting it
        if (
            not isinstance(self.char, int)
            or not 2 <= self.char < CHAR_LIMIT
            or not is_prime(self.char)
        ):
            raise InputError(
                f"field characteristic must be a prime 2 <= p < 2**31, got {self.char!r}"
            )

    def reduce(self, a: int) -> int:
        return a % self.char

    def inv(self, a: int) -> int:
        a %= self.char
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.char)
        return pow(a, -1, self.char)

    def sqrt(self, a: int) -> int | None:
        """A square root of a mod p, or None if a is not a square."""
        p = self.char
        a %= p
        if a == 0:
            return 0
        if p == 2:
            return a
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        # Tonelli-Shanks for p = 1 mod 4.
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) == 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2, i = t, 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r


class SparseRows(NamedTuple):
    """A matrix as its rows, each a dict {column: value}, and its width.

    Absent columns are zero; values are any integers and are reduced mod p
    by the function that receives the matrix."""

    rows: list
    ncols: int


def sparse_rows(m, p: int) -> SparseRows:
    """m as fresh sparse rows with values reduced to [1, p)."""
    if isinstance(m, SparseRows):
        rows = [{c: r for c, v in row.items() if (r := int(v) % p)} for row in m.rows]
        return SparseRows(rows, m.ncols)
    a = np.asarray(m, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    # reduce only the nonzeros: no second dense copy of a large matrix
    r, c = np.nonzero(a)
    vals = a[r, c] % p
    if not vals.all():
        r, c, vals = r[vals != 0], c[vals != 0], vals[vals != 0]
    cols, vals = c.tolist(), vals.tolist()
    bounds = np.searchsorted(r, np.arange(a.shape[0] + 1)).tolist()
    rows = [dict(zip(cols[s:e], vals[s:e])) for s, e in zip(bounds, bounds[1:])]
    return SparseRows(rows, a.shape[1])


def _subtract(row: dict, f: int, piv: dict, p: int) -> None:
    """row -= f * piv in place, dropping the entries that cancel."""
    f = p - f
    for k, v in piv.items():
        w = (row.get(k, 0) + f * v) % p
        if w:
            row[k] = w
        else:
            # w == 0 needs a nonzero row[k], since f * v != 0 mod p
            del row[k]


def _forward(rows, p: int, pivots: dict) -> dict:
    """Forward pass: add `rows` to `pivots`, a semi-echelon form.

    `pivots` maps each pivot column to a row with lead (smallest) column
    there and lead value 1.  Each row is reduced by its lead term only,
    until its lead column holds no pivot yet; then it becomes the pivot
    row of that column.  Shorter rows go first: they make sparser pivot
    rows, so later rows fill in less.  The rows are consumed, so callers
    pass fresh ones.
    """
    for row in sorted(rows, key=len):
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                c = row[lead]
                if c != 1:
                    inv = pow(c, -1, p)
                    row = {k: v * inv % p for k, v in row.items()}
                pivots[lead] = row
                break
            _subtract(row, row[lead], piv, p)
    return pivots


def _backward(pivots: dict, p: int) -> list[int]:
    """Back pass: turn a semi-echelon form into RREF in place, and return
    the increasing list of pivot columns.

    Pivot rows are finished in decreasing pivot order, so every row used
    for back-substitution is already reduced and has no pivot column but
    its own: one sweep over a row's pivot columns clears them all."""
    order = sorted(pivots)
    for lead in reversed(order):
        row = pivots[lead]
        for c in [c for c in row if c != lead and c in pivots]:
            _subtract(row, row[c], pivots[c], p)
    return order


def _coo(rows: list[dict]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row index, column, value) arrays of every entry of `rows`."""
    lengths = [len(row) for row in rows]
    total = sum(lengths)
    at = np.repeat(np.arange(len(rows)), lengths)
    cols = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=total)
    vals = np.fromiter(
        chain.from_iterable(row.values() for row in rows), dtype=np.int64, count=total
    )
    return at, cols, vals


def _dense(rows: list[dict], ncols: int) -> np.ndarray:
    out = np.zeros((len(rows), ncols), dtype=np.int64)
    at, cols, vals = _coo(rows)
    out[at, cols] = vals
    return out


def _echelon(rows, ncols: int, p: int) -> tuple[np.ndarray, list[int]]:
    """(R, pivots): the RREF of fresh sparse rows, see `rref`."""
    pivots = _forward(rows, p, {})
    order = _backward(pivots, p)
    return _dense([pivots[c] for c in order], ncols), order


def rref(m, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of m over F_p.

    Returns (R, pivots): R keeps one row per pivot (zero rows dropped),
    each pivot entry is 1 with zeros above and below, and rows are sorted
    by pivot column.  `pivots` is the increasing list of pivot columns.
    """
    return _echelon(*sparse_rows(m, p), p)


def rank(m, p: int) -> int:
    return len(_forward(sparse_rows(m, p).rows, p, {}))


def kernel_basis(m, p: int) -> np.ndarray:
    """Basis of {x : m @ x = 0} over F_p, as rows of an int64 array.

    One basis vector per free column, in increasing free-column order,
    normalized so the free-coordinate block is the identity (entry 1 at
    its own free column, zeros at every other free column).  This is the
    reduced echelon normal form with respect to the fixed column order,
    hence canonical.
    """
    rows, ncols = sparse_rows(m, p)
    pivots = _forward(rows, p, {})
    order = _backward(pivots, p)
    free_mask = np.ones(ncols, dtype=bool)
    free_mask[order] = False
    free = np.flatnonzero(free_mask)
    out = np.zeros((len(free), ncols), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    # value v of RREF row k at free column f puts -v at (f, pivot k); the
    # RREF itself, rank x ncols, is never made dense
    at, cols, vals = _coo([pivots[c] for c in order])
    keep = free_mask[cols]
    free_index = np.cumsum(free_mask) - 1
    out[free_index[cols[keep]], np.asarray(order, dtype=np.int64)[at[keep]]] = p - vals[keep]
    return out


def in_span(v, m, p: int) -> tuple[bool, np.ndarray | None]:
    """Is v in the column span of m?  Returns (flag, witness).

    When flag is True, witness w satisfies m @ w = v (mod p); otherwise
    witness is None.
    """
    rows, ncols = sparse_rows(m, p)
    vec = (np.asarray(v, dtype=np.int64).reshape(-1) % p).tolist()
    if len(vec) != len(rows):
        raise ValueError(f"vector length {len(vec)} != row count {len(rows)}")
    for row, c in zip(rows, vec):
        if c:
            row[ncols] = c
    reduced, pivots = _echelon(rows, ncols + 1, p)
    if ncols in pivots:
        return False, None
    witness = np.zeros(ncols, dtype=np.int64)
    witness[pivots] = reduced[:, -1]
    return True, witness


def matrix_inverse(m, p: int) -> np.ndarray:
    """Inverse of a square matrix over F_p; raises ValueError if singular."""
    rows, n = sparse_rows(m, p)
    if len(rows) != n:
        raise ValueError(f"not square: {(len(rows), n)}")
    for i, row in enumerate(rows):
        row[n + i] = 1
    reduced, pivots = _echelon(rows, 2 * n, p)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular mod %d" % p)
    return reduced[:, n:]


def complement_basis(sub, full, p: int) -> np.ndarray:
    """Rows extending row-space(sub) to row-space(sub) + row-space(full).

    Returns the rows of rref(stack(sub, full)) whose pivot column is not a
    pivot column of rref(sub).  These are independent modulo sub and span
    a complement of sub inside sub + full; the result depends only on the
    two row spaces, hence canonical.  The pivot columns of rref(sub) are
    the pivots the forward pass has found after the rows of sub.
    """
    full_rows, ncols = sparse_rows(full, p)
    pivots = _forward(sparse_rows(sub, p).rows, p, {})
    sub_piv = set(pivots)
    order = _backward(_forward(full_rows, p, pivots), p)
    return _dense([pivots[c] for c in order if c not in sub_piv], ncols)
