"""Exact sparse linear algebra over a prime field F_p.

Everything in this module is integer arithmetic mod p on Python ints; no
floating point ever reaches a result.  Characteristics are limited to
2 <= p < 2**31.

There is one elimination engine, in the style of Faugère–Lachartre, on
sparse rows: dicts {column: value} of the nonzero entries.  The forward
pass (`_forward`) reduces each incoming row's lead term against the pivot
rows found so far, until its lead column is new or the row vanishes.  The
back pass (`_backward`) then clears every other pivot column from each
pivot row, in decreasing pivot order, which gives the reduced row echelon
form.  `rank` and `in_span` need only the forward pass, and `rank` can
grow one pivot set over several calls; `kernel_basis` and
`complement_basis` read the sparse RREF rows, so they never make dense
the rows they do not return.  The matrices of this package are mostly
well under 1% nonzero, so fill-in stays small.

Every public function takes a `SparseRows` or a dense matrix, a sequence
of equal-length rows of integers read by plain iteration, and reduces its
entries mod p once.  A dense matrix with no rows has no width, so a matrix
that can be empty is passed as `SparseRows([], ncols)`.  Results are in
row form too: `rref`, `kernel_basis` and `complement_basis` return
`SparseRows`, and `matrix_inverse` a list of int rows.  `in_span` takes
its vector as a dict {row: value} and returns a bool.
No function here writes to a dict it was given, and every row it returns
is a fresh one.

Reduced row echelon form is unique for a given column order, so every
basis handed out here (kernels, row spaces, complements) is canonical and
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


class SparseRows(NamedTuple):
    """A matrix as its rows, each a dict {column: value}, and its width.

    Absent columns are zero; values are Python ints and are reduced mod p
    by the function that receives the matrix."""

    rows: list
    ncols: int

    def transpose(self) -> "SparseRows":
        """The transpose, as fresh rows."""
        out = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for c, v in row.items():
                out[c][i] = v
        return SparseRows(out, len(self.rows))


class ReducedRows(SparseRows):
    """A `SparseRows` whose values are known to lie in [1, char), as an
    assembly that reduces every entry builds it: `sparse_rows` hands it
    on for that char without a scan."""

    def __new__(cls, rows: list, ncols: int, char: int):
        self = super().__new__(cls, rows, ncols)
        self.char = char
        return self


def sparse_rows(m, p: int) -> SparseRows:
    """m as sparse rows with values in [1, p).

    A `ReducedRows` for p is handed on as it is.  A row of any other
    `SparseRows` whose values already lie in that range is handed on as
    it is, not copied; the engine copies a row before its first write.
    A dense matrix is read by plain iteration."""
    if isinstance(m, ReducedRows) and m.char == p:
        return m
    if isinstance(m, SparseRows):
        rows = [
            row
            if not row or (0 < min(row.values()) and max(row.values()) < p)
            else {c: r for c, v in row.items() if (r := int(v) % p)}
            for row in m.rows
        ]
        return SparseRows(rows, m.ncols)
    m = list(m)
    ncols = len(m[0]) if m else 0
    if any(len(row) != ncols for row in m):
        raise ValueError("dense matrix rows have unequal lengths")
    rows = [{c: r for c, v in enumerate(row) if v and (r := int(v) % p)} for row in m]
    return SparseRows(rows, ncols)


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


def _forward(rows, p: int, pivots: dict, own: bool = False) -> dict:
    """Forward pass: add `rows` to `pivots`, a semi-echelon form.

    `pivots` maps each pivot column to a row with lead (smallest) column
    there and lead value 1.  Each row is reduced by its lead term only,
    until its lead column holds no pivot yet; then it becomes the pivot
    row of that column.  Shorter rows go first: they make sparser pivot
    rows, so later rows fill in less.

    The given dicts are never written to: a row is copied on its first
    write, so a row that needs no work becomes a pivot row as it is.  With
    `own`, such a row is copied too, so that every pivot row belongs to
    the pass and `_backward` may write to it.
    """
    for row in sorted(rows, key=len):
        copied = False
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                c = row[lead]
                if c != 1:
                    inv = pow(c, -1, p)
                    row = {k: v * inv % p for k, v in row.items()}
                elif own and not copied:
                    row = dict(row)
                pivots[lead] = row
                break
            if not copied:
                row, copied = dict(row), True
            _subtract(row, row[lead], piv, p)
    return pivots


def _backward(pivots: dict, p: int) -> list[int]:
    """Back pass: turn a semi-echelon form, found with `own`, into RREF
    in place, and return the increasing list of pivot columns.

    Pivot rows are finished in decreasing pivot order, so every row used
    for back-substitution is already reduced and has no pivot column but
    its own: one sweep over a row's pivot columns clears them all."""
    order = sorted(pivots)
    for lead in reversed(order):
        row = pivots[lead]
        for c in [c for c in row if c != lead and c in pivots]:
            _subtract(row, row[c], pivots[c], p)
    return order


def rref(m, p: int) -> tuple[SparseRows, list[int]]:
    """Reduced row echelon form of m over F_p.

    Returns (R, pivots): R keeps one row per pivot (zero rows dropped),
    each pivot entry is 1 with zeros above and below, and rows are sorted
    by pivot column.  `pivots` is the increasing list of pivot columns.
    """
    rows, ncols = sparse_rows(m, p)
    pivots = _forward(rows, p, {}, own=True)
    order = _backward(pivots, p)
    return SparseRows([pivots[c] for c in order], ncols), order


def rank(m, p: int, pivots: dict | None = None) -> int:
    """Rank of m over F_p, by the forward pass alone.

    With `pivots`, a dict that earlier calls filled, the rows of m join
    the semi-echelon form held there, in place, and the result is the rank
    of every row it has taken so far."""
    return len(_forward(sparse_rows(m, p).rows, p, {} if pivots is None else pivots))


def kernel_basis(m, p: int) -> SparseRows:
    """Basis of {x : m @ x = 0} over F_p, one row per basis vector.

    One basis vector per free column, in increasing free-column order,
    normalized so the free-coordinate block is the identity (entry 1 at
    its own free column, zeros at every other free column).  This is the
    reduced echelon normal form with respect to the fixed column order,
    hence canonical.
    """
    rows, ncols = sparse_rows(m, p)
    pivots = _forward(rows, p, {}, own=True)
    _backward(pivots, p)
    basis = {f: {f: 1} for f in range(ncols) if f not in pivots}
    # value v of the RREF row of pivot k at free column f puts -v at (f, k)
    for k, row in pivots.items():
        for f, v in row.items():
            if f != k:
                basis[f][k] = p - v
    return SparseRows(list(basis.values()), ncols)


def in_span(v: dict, m, p: int) -> bool:
    """Is v, a vector given as {row: value}, in the column span of m?

    v is appended to m as its last column; it is in the span exactly when
    that column holds no pivot, which the forward pass alone decides.
    Raises ValueError for a row index outside m."""
    rows, ncols = sparse_rows(m, p)
    if not all(0 <= i < len(rows) for i in v):
        raise ValueError(f"vector has a row index outside the {len(rows)} rows of m")
    # a copy: sparse_rows hands a ReducedRows list on as it is
    rows = list(rows)
    for i, c in v.items():
        if c := int(c) % p:
            rows[i] = {**rows[i], ncols: c}
    return ncols not in _forward(rows, p, {})


def matrix_inverse(m, p: int) -> list[list[int]]:
    """Inverse of a square matrix over F_p, as int rows; raises ValueError
    if singular."""
    rows, n = sparse_rows(m, p)
    if len(rows) != n:
        raise ValueError(f"not square: {(len(rows), n)}")
    pivots = _forward([{**row, n + i: 1} for i, row in enumerate(rows)], p, {}, own=True)
    if sorted(pivots) != list(range(n)):
        raise ValueError("matrix is singular mod %d" % p)
    _backward(pivots, p)
    return [[pivots[i].get(n + j, 0) for j in range(n)] for i in range(n)]


def complement_basis(sub, full, p: int) -> SparseRows:
    """Rows extending row-space(sub) to row-space(sub) + row-space(full).

    Returns the rows of rref(stack(sub, full)) whose pivot column is not a
    pivot column of rref(sub).  These are independent modulo sub and span
    a complement of sub inside sub + full; the result depends only on the
    two row spaces, hence canonical.  The pivot columns of rref(sub) are
    the pivots the forward pass has found after the rows of sub.
    """
    full_rows, ncols = sparse_rows(full, p)
    pivots = _forward(sparse_rows(sub, p).rows, p, {}, own=True)
    sub_piv = set(pivots)
    order = _backward(_forward(full_rows, p, pivots, own=True), p)
    return SparseRows([pivots[c] for c in order if c not in sub_piv], ncols)
