"""Koszul complex matrices, linear-strand cocycles, and graded Betti tables.

For an embedded scheme X in P^n with coordinate ring S = R/I (graded pieces
S_q spanned by standard monomials), the strand differentials are

    delta_{p,q} : Lambda^p V (x) S_q  ->  Lambda^{p-1} V (x) S_{q+1}
    delta(e_I (x) f) = sum_k  sign_k  e_{I minus i_k} (x) (x_{i_k} * f)

with V the degree-one piece and the sign for dropping the k-th (1-based)
index of an increasing tuple fixed by `removal_sign` below — the single
source of truth for every sign in this package (contraction in syzgeo uses
the same function).  The table entry is computed by ranks alone:

    b_{p,q} = dim(Lambda^p V (x) S_q) - rank delta_{p,q} - rank delta_{p+1,q-1}

Bases are canonical: wedge tuples in lexicographic order (index-major),
monomials degrevlex-descending; matrices act on column vectors, rows are
the target basis.

The ranks are taken on a hyperplane section of S, not on S itself
(Green, "Koszul cohomology and the geometry of projective varieties", J.
Diff. Geom. 1984).  If a linear form h is a nonzerodivisor on S, then S
over R and S/hS over R/(h) have the same graded Betti numbers, and so
does a regular sequence h_1..h_k, one form at a time.  `artinian_reduction`
cuts S by the forms x_{keep+j} - l_j(x_0..x_{keep-1}), keep = nvars - k,
and certifies the cut by the Hilbert series: the forms are a regular
sequence on S exactly when HS(S/(h)S) = (1-t)^k HS(S), that is, when the
cut ideal in keep variables has the Hilbert numerator of I.  k starts at
the Krull dimension of S, so a Cohen-Macaulay S cut by general enough
forms becomes Artinian, and drops by one each time the certificate
fails, down to k = 0, which is S.
`koszul_dim`, and so `betti_table`, reads the reduction; `koszul_rank`,
the cocycles and the two independent routes read S.

The entry budget counts each delta as it is built, rows times columns
over the ring it is built on: the reduction for Betti numbers, S for
cocycle bases and coboundaries.  `_koszul_columns` checks it before the
assembly, and `koszul_rank` before it reads its cache, so a budgeted run
fails the same way whether or not the cache is warm.

delta is assembled in one place, column by column, as sparse dicts.  A
rank is the rank of the transpose: the forward elimination pass alone,
run on those sparse columns, so no rank makes delta or an echelon form
dense.  Cocycle bases and coboundaries work on the same columns, as rows
of the transpose or transposed back; `koszul_matrix` is the dense view,
a list of int rows, for the callers that want one.

`minimal_free_resolution` is an independent oracle: it resolves R/I degree
by degree with graded kernels and minimal generator selection, never
touching the Koszul code path.  Each step scans degrees up to reg(I) + s - 1
when `certified_regularity` certifies reg(I) by the Bayer–Stillman
criterion, and up to a heuristic cap otherwise.  Its maps are kept as the
nonzero (generator, monomial, coefficient) terms that the next step's
presentation reads; consecutive maps are checked to compose to zero over
those terms, and completeness is certified against the exact Hilbert
series numerator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from operator import add

from .errors import BudgetError, ConsistencyError, InputError
from .exactalg import ReducedRows, SparseRows, complement_basis, kernel_basis, rank, rref
from .polyring import EmbeddedScheme, Ideal, Polynomial, PolyRing

DEFAULT_ENTRY_BUDGET = 16_000_000


def removal_sign(position: int) -> int:
    """Sign carried by removing the index at `position` (0-based) from an
    increasing wedge tuple: (-1)^(position+1)."""
    return -1 if position % 2 == 0 else 1


@lru_cache(maxsize=None)
def exterior_basis(nvars: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Increasing p-tuples from range(nvars), lexicographically ordered."""
    if p < 0 or p > nvars:
        return ()
    return tuple(itertools.combinations(range(nvars), p))


def koszul_space_dim(scheme: EmbeddedScheme, p: int, q: int) -> int:
    """dim Lambda^p V (x) S_q."""
    nv = scheme.ring.nvars
    if p < 0 or p > nv or q < 0:
        return 0
    return comb(nv, p) * scheme.ideal.hilbert_function(q)


def _check_budget(
    scheme: EmbeddedScheme, p: int, q: int, entry_budget: int | None
) -> tuple[int, int]:
    """(rows, cols) of delta_{p,q}; BudgetError when it has more entries
    than the budget allows (DEFAULT_ENTRY_BUDGET when None)."""
    rows = koszul_space_dim(scheme, p - 1, q + 1)
    cols = koszul_space_dim(scheme, p, q)
    budget = DEFAULT_ENTRY_BUDGET if entry_budget is None else entry_budget
    if rows * cols > budget:
        raise BudgetError(
            f"koszul matrix delta_({p},{q}) in {scheme.ring.nvars} variables has "
            f"{rows} x {cols} = {rows * cols} entries, over the budget of {budget}"
        )
    return rows, cols


def _koszul_columns(
    scheme: EmbeddedScheme, p: int, q: int, entry_budget: int | None = None
) -> SparseRows:
    """The columns of delta_{p,q}, as the sparse rows of its transpose.

    One dict {row: value} per source basis element (I, m), in column
    order, with values in [1, char), marked so as `ReducedRows`.
    Dropping different positions k of I gives different target wedges,
    so no two terms of a column share a row.  This is the only assembly
    loop of delta: every other function here reads its output.
    """
    rows, cols = _check_budget(scheme, p, q, entry_budget)
    if rows == 0 or cols == 0:
        return SparseRows([{} for _ in range(cols)], rows)
    ideal = scheme.ideal
    char = scheme.char
    nv = scheme.ring.nvars
    tgt_index = {w: i for i, w in enumerate(exterior_basis(nv, p - 1))}
    tgt_monos_index = ideal.standard_index(q + 1)
    width = len(tgt_monos_index)
    # x_i * m on the target monomials, once per (m, i) rather than once
    # per (I, m, k)
    times = [
        [
            [(tgt_monos_index[m2], c) for m2, c in ideal.nf_times_var(m, i).items()]
            for i in range(nv)
        ]
        for m in ideal.standard_monomials(q)
    ]
    columns = []
    for wedge in exterior_basis(nv, p):
        drops = [
            (tgt_index[wedge[:k] + wedge[k + 1 :]] * width, i, removal_sign(k))
            for k, i in enumerate(wedge)
        ]
        for prods in times:
            col = {}
            for base, i, sign in drops:
                for j, c in prods[i]:
                    col[base + j] = sign * c % char
            columns.append(col)
    return ReducedRows(columns, rows, char)


def koszul_matrix(
    scheme: EmbeddedScheme, p: int, q: int, entry_budget: int | None = None
) -> list[list[int]]:
    """The matrix of delta_{p,q} in the documented bases, as dense int
    rows with entries in [0, char).

    Columns: (I, m) with I in exterior_basis(n+1, p) major, m running over
    standard_monomials(q).  Rows: (J, m') with J in exterior_basis(n+1, p-1)
    and m' over standard_monomials(q+1).
    """
    columns, height = _koszul_columns(scheme, p, q, entry_budget)
    mat = [[0] * len(columns) for _ in range(height)]
    for ci, col in enumerate(columns):
        for r, v in col.items():
            mat[r][ci] = v
    return mat


def koszul_rank(
    scheme: EmbeddedScheme, p: int, q: int, entry_budget: int | None = None
) -> int:
    """rank of delta_{p,q}, cached on the scheme.

    Computed as the rank of the transpose by the forward pass alone, on
    the sparse columns: neither delta nor an echelon form is made dense.
    The budget is checked before the cache is read."""
    _check_budget(scheme, p, q, entry_budget)
    got = scheme._koszul_ranks.get((p, q))
    if got is None:
        got = rank(_koszul_columns(scheme, p, q, entry_budget), scheme.char)
        scheme._koszul_ranks[(p, q)] = got
    return got


def artinian_reduction(scheme: EmbeddedScheme) -> EmbeddedScheme:
    """A hyperplane section of the coordinate ring S = R/I by a certified
    regular sequence of linear forms, with the graded Betti numbers of S;
    cached on the scheme.

    For k from the Krull dimension of S (capped at nvars - 1, so one
    variable is always kept) down to 1, with keep = nvars - k: substitute
    x_{keep+j} -> x_{keep+j} + l_j(x_0..x_{keep-1}) by a lower-unitriangular
    matrix, then set the last k variables to zero.  That restricts I to
    x_{keep+j} = l_j, where

        l_j = sum_{v < keep} (j + 1)^(v + 1) x_v,   j = 0..k-1,

    so l_0 is the sum of the kept variables at every prime, and at keep = 1
    the cut is the point (1, 1, 2, ..., k).  The first k whose cut ideal
    has the Hilbert numerator of I is taken: equal numerators mean the k
    forms x_{keep+j} - l_j are a regular sequence on S.  A pattern that
    fails only lowers k, down to S itself (k = 0).  The cut ideal's basis
    is computed without a Hilbert target: its numerator is what is being
    certified.  When S is Cohen-Macaulay and the forms are general enough,
    the section is Artinian; otherwise k is at most the depth of S.
    """
    got = scheme._reduction
    if got is not None:
        return got
    got = scheme
    ring, ideal = scheme.ring, scheme.ideal
    nv, char = ring.nvars, ring.char
    numerator = ideal.hilbert_series_numerator()
    for k in range(min(scheme.hilbert_data().dimension + 1, nv - 1), 0, -1):
        keep = nv - k
        matrix = [[int(i == j) for j in range(nv)] for i in range(nv)]
        for j in range(k):
            matrix[keep + j][:keep] = [pow(j + 1, v + 1, char) for v in range(keep)]
        small = PolyRing(ring.field, ring.names[:keep])
        cut = Ideal(small, [
            Polynomial(small, {m[:keep]: c for m, c in g.terms.items() if not any(m[keep:])})
            for g in ideal.change_coordinates(matrix).gens
        ])
        if cut.hilbert_series_numerator() == numerator:
            got = EmbeddedScheme(cut)
            break
    scheme._reduction = got
    return got


def koszul_dim(
    scheme: EmbeddedScheme, p: int, q: int, entry_budget: int | None = None
) -> int:
    """b_{p,q} = dim of the (p,q) Koszul cohomology of the coordinate ring.

    The ranks are taken over `artinian_reduction(scheme)`, R/I cut by a
    regular sequence of linear forms, which has the same b_{p,q} and
    smaller (often far smaller) graded pieces; b_{p,q} = 0 there for p
    above its number of variables, as it is for S by Auslander-Buchsbaum.
    The budget counts delta_{p,q} and delta_{p+1,q-1} on that reduction,
    the matrices that are built."""
    if q < 0 or p < 0:
        return 0
    cut = artinian_reduction(scheme)
    b = (
        koszul_space_dim(cut, p, q)
        - koszul_rank(cut, p, q, entry_budget)
        - koszul_rank(cut, p + 1, q - 1, entry_budget)
    )
    if b < 0:
        raise ConsistencyError(
            f"negative strand dimension at (p={p}, q={q}): {b}; sign bug?"
        )
    return b


# ---------------------------------------------------------------------------
# Betti tables


@dataclass
class BettiTable:
    """b_{p,q} for 0 <= p <= pmax, 0 <= q <= qmax over F_char."""

    char: int
    pmax: int
    qmax: int
    entries: dict = field(default_factory=dict)

    def entry(self, p: int, q: int) -> int:
        return self.entries.get((p, q), 0)

    def text(self) -> str:
        cols = range(self.pmax + 1)
        head = ["      "] + [f"{p:>6}" for p in cols]
        lines = ["".join(head)]
        totals = ["total:"] + [
            f"{sum(self.entry(p, q) for q in range(self.qmax + 1)):>6}" for p in cols
        ]
        lines.append("".join(totals))
        for q in range(self.qmax + 1):
            row = [f"{q:>5}:"]
            for p in cols:
                v = self.entry(p, q)
                row.append(f"{v if v else '.':>6}")
            lines.append("".join(row))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "char": self.char,
            "pmax": self.pmax,
            "qmax": self.qmax,
            "entries": [
                {"p": p, "q": q, "value": self.entry(p, q)}
                for p in range(self.pmax + 1)
                for q in range(self.qmax + 1)
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BettiTable":
        t = cls(char=int(d["char"]), pmax=int(d["pmax"]), qmax=int(d["qmax"]))
        for e in d["entries"]:
            v = int(e["value"])
            if v:
                t.entries[(int(e["p"]), int(e["q"]))] = v
        return t


def betti_table(
    scheme: EmbeddedScheme, pmax: int, qmax: int, entry_budget: int | None = None
) -> BettiTable:
    """Graded Betti numbers of the coordinate ring by the rank formula."""
    if pmax < 0 or qmax < 0:
        raise InputError("pmax and qmax must be non-negative")
    table = BettiTable(char=scheme.char, pmax=pmax, qmax=qmax)
    for p in range(pmax + 1):
        for q in range(qmax + 1):
            v = koszul_dim(scheme, p, q, entry_budget)
            if v:
                table.entries[(p, q)] = v
    return table


# ---------------------------------------------------------------------------
# linear-strand cocycles


@dataclass
class KoszulCocycle:
    """A cocycle in Lambda^p V (x) V for a scheme: a linear syzygy class
    representative.  coeffs maps (wedge tuple, variable index) to a nonzero
    coefficient mod char."""

    scheme: EmbeddedScheme
    p: int
    coeffs: dict

    def __post_init__(self):
        nv = self.scheme.ring.nvars
        if not (1 <= self.p <= nv):
            raise InputError(f"cocycle wedge degree p={self.p} out of range")
        clean = {}
        for (wedge, var), c in self.coeffs.items():
            wedge = tuple(int(i) for i in wedge)
            if list(wedge) != sorted(set(wedge)) or len(wedge) != self.p:
                raise InputError(f"bad wedge tuple {wedge} for p={self.p}")
            if not all(0 <= i < nv for i in wedge) or not (0 <= var < nv):
                raise InputError(f"index out of range in ({wedge}, {var})")
            c %= self.scheme.char
            if c:
                clean[(wedge, int(var))] = c
        self.coeffs = clean

    # -- vector layout (matches koszul_matrix columns for q = 1) ------------

    def to_vector(self) -> dict:
        """The nonzero coordinates, as a row dict {index: coeff}.

        A scheme holds no linear form, so S_1 is V with x_0..x_n in order,
        and (wedge, var) sits at wedge_index * nvars + var."""
        nv = self.scheme.ring.nvars
        widx = {w: i for i, w in enumerate(exterior_basis(nv, self.p))}
        return {widx[wedge] * nv + var: c for (wedge, var), c in self.coeffs.items()}

    @classmethod
    def from_vector(cls, scheme: EmbeddedScheme, p: int, vec: dict) -> "KoszulCocycle":
        """The cocycle with coordinates the row dict {index: coeff}, in the
        layout of `to_vector`."""
        nv = scheme.ring.nvars
        wedges = exterior_basis(nv, p)
        return cls(
            scheme, p, {(wedges[idx // nv], idx % nv): int(c) for idx, c in sorted(vec.items())}
        )

    @cached_property
    def quadric_terms(self) -> dict:
        """{J: terms} for each (p-1)-subset J with a nonzero e_J quadric:
        the e_J coefficient sum_k sign_k c x_{i_k} x_var of the pure Koszul
        image of this tensor in Lambda^{p-1} V (x) Sym^2 V, summed over its
        coefficients (wedge, var) with wedge minus i_k = J.  Each terms
        dict maps exponent tuples to coefficients in [1, char); the J come
        in increasing order.  Computed once per cocycle; callers must not
        modify it."""
        nv = self.scheme.ring.nvars
        acc: dict[tuple, dict] = {}
        for (wedge, j), c in self.coeffs.items():
            for k, i in enumerate(wedge):
                e = [0] * nv
                e[i] += 1
                e[j] += 1
                mono = tuple(e)
                bucket = acc.setdefault(wedge[:k] + wedge[k + 1 :], {})
                bucket[mono] = bucket.get(mono, 0) + removal_sign(k) * c
        char = self.scheme.char
        quads = {}
        for J, bucket in sorted(acc.items()):
            if terms := {m: r for m, v in bucket.items() if (r := v % char)}:
                quads[J] = terms
        return quads

    def is_cocycle(self) -> bool:
        """Is delta_{p,1} of this tensor zero?  Its e_J entry is the normal
        form of the e_J quadric (`quadric_terms`), as NF is linear: each
        quadric is summed first, then reduced term by term through
        `nf_times_var`, exactly in Python ints.  No matrix is built, so no
        budget applies."""
        ideal = self.scheme.ideal
        char = self.scheme.char
        for terms in self.quadric_terms.values():
            image: dict = {}
            for m, c in terms.items():
                # m = x_i * x_j with j its last variable
                j = max(i for i, e in enumerate(m) if e)
                rest = list(m)
                rest[j] -= 1
                for m2, v in ideal.nf_times_var(tuple(rest), j).items():
                    image[m2] = image.get(m2, 0) + c * v
            if any(v % char for v in image.values()):
                return False
        return True

    def add(self, other: "KoszulCocycle") -> "KoszulCocycle":
        if other.scheme is not self.scheme or other.p != self.p:
            raise InputError("cocycles live in different spaces")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return KoszulCocycle(self.scheme, self.p, out)

    def scale(self, c: int) -> "KoszulCocycle":
        c %= self.scheme.char
        return KoszulCocycle(
            self.scheme, self.p, {k: (v * c) % self.scheme.char for k, v in self.coeffs.items()}
        )

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "terms": [
                {"wedge": list(w), "var": v, "coeff": c}
                for (w, v), c in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, scheme: EmbeddedScheme, d: dict) -> "KoszulCocycle":
        """The cocycle of `to_json_dict`; every number must be a JSON integer."""

        def integer(v) -> int:
            if type(v) is not int:
                raise InputError(f"malformed cocycle JSON: expected an integer, got {v!r}")
            return v

        try:
            p = integer(d["p"])
            coeffs = {
                (tuple(map(integer, t["wedge"])), integer(t["var"])): integer(t["coeff"])
                for t in d["terms"]
            }
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed cocycle JSON: {exc}") from exc
        return cls(scheme, p, coeffs)


def coboundary_rows(
    scheme: EmbeddedScheme, p: int, entry_budget: int | None = None
) -> SparseRows:
    """Image of delta_{p+1,0} as row vectors in the (wedge, var) layout:
    the columns of delta_{p+1,0}."""
    return _koszul_columns(scheme, p + 1, 0, entry_budget)


def k_p1_cocycle_basis(
    scheme: EmbeddedScheme, p: int, entry_budget: int | None = None
) -> list[KoszulCocycle]:
    """Canonical representatives of a basis of the (p,1) strand cohomology,
    cached on the scheme.

    Kernel of delta_{p,1} modulo the image of delta_{p+1,0}; representatives
    come from the canonical complement construction, so a fixed scheme and p
    always produce the same list.  As in `koszul_rank`, the budget of both
    deltas is checked before the cache is read, so a budgeted run fails
    the same way whether or not the cache is warm.  Every call returns a
    new list; the cocycles in it are shared.
    """
    _check_budget(scheme, p, 1, entry_budget)
    _check_budget(scheme, p + 1, 0, entry_budget)
    got = scheme._cocycle_bases.get(p)
    if got is None:
        delta = _koszul_columns(scheme, p, 1, entry_budget).transpose()
        ker = kernel_basis(delta, scheme.char)
        cob = coboundary_rows(scheme, p, entry_budget)
        reps = complement_basis(cob, ker, scheme.char)
        got = [KoszulCocycle.from_vector(scheme, p, row) for row in reps.rows]
        scheme._cocycle_bases[p] = got
    return list(got)


def cocycle_class_is_zero(cocycle: KoszulCocycle, entry_budget: int | None = None) -> bool:
    """Does the cocycle represent the zero cohomology class?"""
    from .exactalg import in_span

    scheme = cocycle.scheme
    if not cocycle.coeffs:
        return True
    cob = coboundary_rows(scheme, cocycle.p, entry_budget)
    return in_span(cocycle.to_vector(), cob.transpose(), scheme.char)


# ---------------------------------------------------------------------------
# independent route: the quadratic strand from the ideal itself


def linear_strand_dim_from_ideal(scheme: EmbeddedScheme, p: int) -> int:
    """b_{p,1} computed without the coordinate ring: the kernel dimension of
    Lambda^{p-1} V (x) I_2 -> Lambda^{p-2} V (x) I_3 (p >= 1).

    Independent cross-check for the rank-formula route (they share only the
    base linear algebra)."""
    if p < 1:
        raise InputError("the ideal route computes b_{p,1} for p >= 1 only")
    ring = scheme.ring
    nv = ring.nvars
    char = ring.char
    ideal = scheme.ideal
    quad_basis = ideal.graded_basis(2)
    if not quad_basis:
        return 0
    nonstd3 = ideal.nonstandard_monomials(3)
    pos3 = {m: i for i, m in enumerate(nonstd3)}
    src_wedges = exterior_basis(nv, p - 1)
    tgt_wedges = exterior_basis(nv, p - 2)
    tgt_index = {w: i for i, w in enumerate(tgt_wedges)}
    cols = len(src_wedges) * len(quad_basis)
    rows = len(tgt_wedges) * len(nonstd3)
    # dense int rows: the traced benchmark reads this matrix as an array
    mat = [[0] * cols for _ in range(rows)]
    ci = 0
    for wedge in src_wedges:
        for f in quad_basis:
            for k, i in enumerate(wedge):
                sign = removal_sign(k)
                base = tgt_index[wedge[:k] + wedge[k + 1 :]] * len(nonstd3)
                prod = f * ring.var(i)
                # coordinates of an element of I_3 on the graded basis are
                # its coefficients at the nonstandard monomials
                for m, c in prod.terms.items():
                    j = pos3.get(m)
                    if j is not None:
                        mat[base + j][ci] = (mat[base + j][ci] + sign * c) % char
            ci += 1
    if rows == 0:
        return cols
    return cols - len(rref(mat, char)[1])


# ---------------------------------------------------------------------------
# minimal free resolution (independent oracle)


@dataclass
class Resolution:
    """A minimal graded free resolution of R/I, possibly truncated.

    modules[s] lists the generator degrees of F_s (modules[0] == [0]);
    maps[s] lists the generators of F_{s+1}, each as its nonzero terms
    (j, monomial, coefficient), one per term c * monomial of its entry at
    generator j of F_s; terms run generator j first, then monomials
    degrevlex-descending, and zero entries have none.  `truncated` is
    False only when the alternating sum of generator degrees reproduces
    the exact Hilbert series numerator of R/I — a completeness
    certificate independent of the degrees each step scanned."""

    ideal: Ideal
    modules: list
    maps: list
    truncated: bool

    def graded_betti(self) -> dict:
        """{(homological index, internal degree): count}, beta_{0,0} = 1."""
        out = {(0, 0): 1}
        for s, degs in enumerate(self.modules):
            if s == 0:
                continue
            for d in degs:
                out[(s, d)] = out.get((s, d), 0) + 1
        return out

    def strand_entry(self, p: int, q: int) -> int:
        """b_{p,q} in the Koszul indexing: generators of F_p in degree p+q."""
        return self.graded_betti().get((p, p + q), 0)

    def length(self) -> int:
        return len(self.modules) - 1


def certified_regularity(ideal: Ideal, lo: int, hi: int) -> int | None:
    """The least m in [lo, hi] at which the Bayer–Stillman criterion shows
    that I is m-regular, or None.  I must be generated in degrees <= lo.

    The criterion (Bayer–Stillman, Invent. Math. 1987): I is
    m-regular if there are linear forms h_1, ..., h_j with
    ((I, h_1..h_{i-1}) : h_i)_m = (I, h_1..h_{i-1})_m for each i and
    (I, h_1..h_j)_m = S_m.  That direction needs no genericity, and
    extending F_p to its algebraic closure changes neither the regularity
    nor these ranks, so any forms will do; they come from a fixed pattern,
    h_i = sum_v (i+2)^v x_v.  A pattern that fails only costs the
    certificate, never a wrong m.

    Each condition is a rank in R/I, over the standard monomials.  With J
    = (h_1..h_{i-1}) in R/I, the first says that h_i is injective from
    (R/I)_m / J_m to (R/I)_{m+1} / J_{m+1}: adding the rows h_i * u, u in
    degree m, raises the rank of J_{m+1} by dim (R/I)_m - dim J_m.  The
    second says J_m, with h_j in it, is all of (R/I)_m.  The rows come
    from the cached x_v * u, and each degree keeps one growing pivot set.
    """
    char = ideal.ring.char
    nv = ideal.ring.nvars
    forms = [[pow(i + 2, v, char) for v in range(nv)] for i in range(1, nv + 1)]
    # degree d -> the terms (v, column, coefficient) of x_v * u in R/I, per
    # standard monomial u of degree d, shared by every form
    products: dict[int, list] = {}

    def times(h: list[int], d: int) -> SparseRows:
        """h * u for each standard monomial u of degree d, in R/I."""
        index = ideal.standard_index(d + 1)
        got = products.get(d)
        if got is None:
            got = products[d] = [
                [(v, index[mono], c) for v in range(nv) for mono, c in ideal.nf_times_var(u, v).items()]
                for u in ideal.standard_monomials(d)
            ]
        rows = []
        for terms in got:
            row: dict[int, int] = {}
            for v, k, c in terms:
                row[k] = row.get(k, 0) + h[v] * c
            rows.append({k: r for k, c in row.items() if (r := c % char)})
        return SparseRows(rows, len(index))

    for m in range(lo, hi + 1):
        full = ideal.hilbert_function(m)
        # the pivots of J_m and J_{m+1}
        low: dict = {}
        high: dict = {}
        for h in forms:
            if len(low) == full:
                break
            before = len(high)
            if rank(times(h, m), char, high) - before != full - len(low):
                break
            rank(times(h, m - 1), char, low)
        if len(low) == full:
            return m
    return None


def minimal_free_resolution(
    ideal: Ideal, degree_bound: int = 10, length_bound: int | None = None
) -> Resolution:
    """Resolve R/I minimally, degree by degree, over the ambient ring.

    Fully independent of the Koszul machinery: each step computes graded
    kernels of the presentation matrix and picks minimal new generators as
    the canonical complement of (degree-one) x (previous kernel piece).

    F_s is generated in degrees <= reg(I) + s - 1 (Eisenbud, The Geometry
    of Syzygies, ch. 4).  When step 1 found every generator of I, a
    regularity m certified by `certified_regularity` caps each later
    step's scan at m + s - 1; without one, step s scans up to twice the
    top degree of F_{s-1}, and the Hilbert-series certificate flags any
    truncation that cap causes.  Raises ConsistencyError if a purportedly
    minimal map acquires a unit entry or consecutive maps fail to compose
    to zero."""
    ring = ideal.ring
    char = ring.char
    nv = ring.nvars
    if length_bound is None:
        length_bound = nv
    modules: list[list[int]] = [[0]]
    maps: list[list[list[tuple]]] = []

    def layout(degrees: list[int], d: int):
        """The degree-d coordinates (j, m) of the free module with
        generators in `degrees`, and the position of each."""
        coords = [
            (j, m) for j, dj in enumerate(degrees) for m in ring.monomials_of_degree(d - dj)
        ]
        return coords, {key: i for i, key in enumerate(coords)}

    # the product table, held for this call, and the monomial positions
    # per degree that it reads
    index: dict[int, dict] = {}
    table: dict[tuple, list[int]] = {}

    def products(mm, b: int) -> list[int]:
        """The position of mm * m among the monomials of its degree, for
        each monomial m of degree b in order."""
        got = table.get((mm, b))
        if got is None:
            e = b + sum(mm)
            pos = index.get(e)
            if pos is None:
                pos = index[e] = {m: k for k, m in enumerate(ring.monomials_of_degree(e))}
            got = table[mm, b] = [pos[tuple(map(add, mm, m))] for m in ring.monomials_of_degree(b)]
        return got

    reg = None
    for step in range(1, length_bound + 1):
        prev_degrees = modules[-1]
        dmin = min(prev_degrees) + 1
        if step == 1:
            if not ideal.groebner():
                break
            # minimal generators of I are bounded by the top GB degree
            top = max(sum(lm) for lm in ideal.lead_monomials())
            scan_max = min(degree_bound, top)
        else:
            # the heuristic cap, lowered to reg(I) + s - 1 once a
            # regularity is certified; a regularity needs all of I's
            # generators, so none is sought when the bound cut step 1 short
            scan_max = min(degree_bound, 2 * max(prev_degrees))
            if step == 2 and top <= degree_bound:
                reg = certified_regularity(ideal, max(prev_degrees), scan_max)
            if reg is not None:
                scan_max = min(scan_max, reg + step - 1)
        new_degrees: list[int] = []
        new_vectors: list[list[tuple]] = []
        # the previous degree's kernel piece, as rows over its coordinates
        prev_kernel: list[dict] = []
        prev_coords: list = []
        for d in range(dmin, scan_max + 1):
            coords, pos = layout(prev_degrees, d)
            if step == 1:
                # the kernel piece is I_d, over the monomials of R_d
                rows = [{pos[0, m]: c for m, c in g.terms.items()} for g in ideal.graded_basis(d)]
                ker = SparseRows(rows, len(coords))
            else:
                # the row of coordinate (i, u) of F_{s-2} sits at offsets[i]
                # plus the position of u among the monomials of its degree;
                # the column (j, m) gets c at the row of (i, mm * m) for each
                # term c * mm of the entry i of generator j.  Columns are
                # filled in order, so each row's keys ascend: filled term by
                # term instead, kernel_basis ran about 2% slower on them
                sizes = (len(ring.monomials_of_degree(d - di)) for di in modules[-2])
                offsets = list(itertools.accumulate(sizes, initial=0))
                rows = [{} for _ in range(offsets[-1])]
                ci = 0
                for j, dj in enumerate(prev_degrees):
                    b = d - dj
                    terms = [(offsets[i], products(mm, b), c) for i, mm, c in maps[-1][j]]
                    for k in range(len(ring.monomials_of_degree(b))):
                        for base, prods, c in terms:
                            rows[base + prods[k]][ci] = c
                        ci += 1
                ker = kernel_basis(SparseRows(rows, len(coords)), char)
            # span of lower-degree kernel elements, shifted by each variable:
            # the column of (j, m * x_v), per column (j, m) that a row uses
            shift = {}
            for idx in set().union(*prev_kernel):
                j, m = prev_coords[idx]
                shift[idx] = [pos[j, m[:v] + (m[v] + 1,) + m[v + 1 :]] for v in range(nv)]
            old_rows = [
                {shift[idx][v]: c for idx, c in row.items()} for row in prev_kernel for v in range(nv)
            ]
            new = complement_basis(SparseRows(old_rows, len(coords)), ker, char)
            for row in new.rows:
                new_degrees.append(d)
                new_vectors.append([coords[idx] + (c,) for idx, c in sorted(row.items())])
            # the full kernel piece (not just new gens) feeds the next degree
            prev_kernel, prev_coords = ker.rows, coords
        if not new_degrees:
            break
        # minimality check: no unit (degree-zero) entries
        for dg, vec in zip(new_degrees, new_vectors):
            if any(prev_degrees[j] == dg for j, _, _ in vec):
                raise ConsistencyError("resolution map acquired a unit entry")
        # composition check: image of each new generator is zero in F_{s-2}.
        # It reads the previous map, never the kernels, and sums products of
        # nonzero terms only, keyed by (i, monomial)
        if step >= 2:
            for vec in new_vectors:
                image: dict[tuple, int] = {}
                for j, m, a in vec:
                    for i, mm, c in maps[-1][j]:
                        key = (i, tuple(map(add, m, mm)))
                        image[key] = image.get(key, 0) + a * c
                if any(v % char for v in image.values()):
                    raise ConsistencyError("resolution maps do not compose to zero")
        else:
            for vec in new_vectors:
                if ideal.normal_form(Polynomial(ring, {m: c for _, m, c in vec})).terms:
                    raise ConsistencyError("step-1 generator is not in the ideal")
        modules.append(new_degrees)
        maps.append(new_vectors)

    # completeness certificate: alternating degree sum == Hilbert numerator
    euler: dict[int, int] = {0: 1}
    for s in range(1, len(modules)):
        for d in modules[s]:
            euler[d] = euler.get(d, 0) + (-1) ** s
    euler = {d: c for d, c in euler.items() if c}
    numer = ideal.hilbert_series_numerator()
    numer_dict = {d: c for d, c in enumerate(numer) if c}
    truncated = euler != numer_dict
    return Resolution(ideal=ideal, modules=modules, maps=maps, truncated=truncated)
