"""Graded polynomial rings over F_p and homogeneous ideals.

Monomials are exponent tuples; polynomials are dicts mapping exponent
tuples to nonzero coefficients in [1, p).  The default term order is
degree-reverse-lexicographic with x0 > x1 > ... ; elimination uses block
orders (degrevlex inside each block).  All bases handed out (standard
monomials, graded ideal pieces, Groebner bases) are sorted canonically so
downstream matrix layouts are reproducible.

Groebner bases are computed by Buchberger's algorithm, then inter-reduced:
the reduced GB is unique for a given order, which several equality tests
below rely on.  Every ideal is homogeneous: `Ideal` checks its generators,
so each term of a reduction has the degree of a term already keyed.

- Order keys are exact Python ints that compare as the order does and add
  under monomial multiplication.  They pack 16 bits per exponent, so a
  monomial of total degree DEGREE_LIMIT (2**16) or more raises BudgetError.
- A normal form keeps its pending terms on a heap of those keys and pops
  the largest; a reducer's shifted tail is keyed by adding one int per
  term, and its lead, which cancels exactly, is skipped.
- Lead terms carry a divisibility mask that rules out most non-divisors
  before the exponents are compared, and detects coprime pairs.
- S-pairs go through the Gebauer-Moeller update (criteria B, M and F) and
  are taken by least (degree of lcm, key).  When the Hilbert function, or
  a proven floor of it, is known, a degree's remaining pairs are dropped
  once its leads reach it (Traverso).
- Hilbert data is cross-checked on standard monomials only in degrees
  where the Hilbert function must equal the Hilbert polynomial.
- An Ideal caches its reduced GB, with the lead terms and keyed tails, in
  one entry per order.  Every GB lives there, eliminations included, and
  that entry is the only caller of `buchberger`; an elimination also fills
  its result's DRL entry, and a coordinate change that keeps the DRL leads
  derives its result's DRL entry from the source basis.  Colons
  I : x_i^infinity read the GB in degrevlex with x_i last
  (Bayer-Stillman), in the same ring.  Saturation is one colon I : l^infinity
  by a linear form l, accepted once it has the Hilbert polynomial of I.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, le, sub

from .errors import BudgetError, ConsistencyError, InputError
from .exactalg import FieldSpec, rank as matrix_rank

Mono = tuple  # exponent tuple


# ---------------------------------------------------------------------------
# term orders


# Order keys are exact Python ints: each order packs a monomial's exponents
# into one int that compares exactly as the order does.  Every exponent gets
# _KEY_BITS bits, so a monomial of total degree DEGREE_LIMIT or more cannot be
# packed and raises BudgetError instead of wrapping.  Both keys are linear in
# the exponent vector, key(a*b) == key(a) + key(b) below the limit, which
# the reduction loop uses to key shifted terms without packing them again.

_KEY_BITS = 16
DEGREE_LIMIT = 1 << _KEY_BITS


def _check_degree(e: Mono) -> None:
    d = sum(e)
    if d >= DEGREE_LIMIT:
        raise BudgetError(
            f"monomial of total degree {d} is past the term-order limit "
            f"{DEGREE_LIMIT - 1}"
        )


def _drl_int(e) -> int:
    """Degree above the reversed, negated exponents (x_n most significant);
    every exponent must be below 2**_KEY_BITS."""
    packed = 0
    for x in reversed(e):
        packed = (packed << _KEY_BITS) | x
    return (sum(e) << (_KEY_BITS * len(e))) - packed


def _check_var(i: int, nvars: int) -> None:
    if not 0 <= i < nvars:
        raise InputError(f"variable index {i} is out of range for a ring in {nvars} variables")


class DegRevLex:
    """Degree reverse lexicographic order, x0 > x1 > ... > xn.  With
    `last=i`, x_i moves below every other variable, which keep their order."""

    def __init__(self, last: int | None = None, nvars: int = 0):
        if last is not None:
            _check_var(last, nvars)
        self.last = last
        self.name = "degrevlex" if last is None else f"degrevlex(last={last})"

    def key(self, e: Mono) -> int:
        _check_degree(e)
        if self.last is not None:
            e = e[: self.last] + e[self.last + 1 :] + (e[self.last],)
        return _drl_int(e)


class BlockOrder:
    """Eliminination order: variables in `first` dominate the rest.

    Both blocks are compared by degrevlex.  A Groebner basis w.r.t. this
    order intersected with the subring on the remaining variables is a
    Groebner basis of the elimination ideal.
    """

    def __init__(self, first: tuple[int, ...], nvars: int):
        for i in first:
            _check_var(i, nvars)
        self.first = tuple(sorted(set(first)))
        self.rest = tuple(i for i in range(nvars) if i not in self.first)
        self.name = f"elim{self.first}"
        # the degrevlex int of the rest is below 2**_shift
        self._shift = _KEY_BITS * (len(self.rest) + 1)

    def key(self, e: Mono) -> int:
        _check_degree(e)
        a = _drl_int([e[i] for i in self.first])
        return (a << self._shift) + _drl_int([e[i] for i in self.rest])


DRL = DegRevLex()


# ---------------------------------------------------------------------------
# dict-level polynomial arithmetic (hot paths)


def _add_into(acc: dict, other: dict, scale: int, p: int) -> None:
    if scale % p == 0:
        return
    for m, c in other.items():
        v = (acc.get(m, 0) + scale * c) % p
        if v:
            acc[m] = v
        elif m in acc:
            del acc[m]

def _mul_dict(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for mf, cf in f.items():
        for mg, cg in g.items():
            m = tuple(a + b for a, b in zip(mf, mg))
            v = (out.get(m, 0) + cf * cg) % p
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


def _linear_images(a: list[list[int]], width: int) -> tuple[list, dict]:
    """The substitution x_i -> sum_j a[i][j] y_j, one row of `a` per x_i
    and `width` columns, one per y_j, as (forms, images): forms[i] lists
    the (j, a[i][j]) with a[i][j] nonzero, and `images` is the table of
    monomial images for `_substitute`, holding only 1 -> 1."""
    forms = [[(j, c) for j, c in enumerate(row) if c] for row in a]
    return forms, {(0,) * len(a): {(0,) * width: 1}}


def _substitute(terms: dict, forms: list, images: dict, p: int) -> dict:
    """The image of a polynomial under x_i -> forms[i] (see _linear_images).

    The image of a monomial m is the image of m / x_i times forms[i], where
    x_i is the last variable of m.  Images are read from `images` and each
    one computed is added to it, so polynomials that share the table share
    the work."""
    out: dict = {}
    for m, c in terms.items():
        img = images.get(m)
        if img is None:
            # strip last variables down to a monomial whose image is known,
            # then multiply the forms back on
            chain = []
            u = m
            while img is None:
                i = len(u) - 1
                while not u[i]:
                    i -= 1
                chain.append((u, forms[i]))
                u = u[:i] + (u[i] - 1,) + u[i + 1 :]
                img = images.get(u)
            for u, form in reversed(chain):
                acc: dict = {}
                for w, cw in img.items():
                    for j, v in form:
                        wj = w[:j] + (w[j] + 1,) + w[j + 1 :]
                        acc[wj] = acc.get(wj, 0) + cw * v
                img = images[u] = {w: v % p for w, v in acc.items() if v % p}
        _add_into(out, img, c, p)
    return out


def _matrix_rows(matrix, n: int, m: int, p: int, what: str) -> list[list[int]]:
    """An n x m matrix as int rows reduced mod p; InputError otherwise."""
    a = [[int(v) % p for v in row] for row in matrix]
    if len(a) != n or any(len(row) != m for row in a):
        raise InputError(f"{what} must be {n}x{m}")
    return a


def _divmask(m: Mono) -> int:
    """Two bits per variable, set when its exponent is >= 1 and >= 2.

    If a divides b then _divmask(a) & ~_divmask(b) == 0, so the masks rule
    out most non-divisors before any exponent is compared; for leads of
    degree <= 2 the mask test is exact.  Two monomials are coprime exactly
    when their masks share no bit."""
    mask = 0
    for i, x in enumerate(m):
        if x:
            mask |= (1 if x == 1 else 3) << (2 * i)
    return mask


def _divisor(m: Mono, mask: int, leads):
    """The first entry of `leads` whose monomial divides m, or None.

    Entries are tuples that start with (monomial, its _divmask); `mask` is
    _divmask(m)."""
    for r in leads:
        if not r[1] & ~mask and all(map(le, r[0], m)):
            return r
    return None


def _next_degree(prev: list[Mono], cuts: list[int], leads=None):
    """Degree d+1 of an order ideal of monomials from its degree d.

    `prev` lists the degree-d members degrevlex-descending, that is in
    ascending order of their reversed exponent tuples, and cuts[i] counts
    those whose last variable is at most x_i: they are a prefix of `prev`.
    Each monomial u of degree d+1 is m*x_i for exactly one m of degree d
    with i >= the last variable of m (i is the last variable of u), and m
    divides u, so u is a member only if m is.  The products come out in
    order grouped by i, and a product is kept when no entry of `leads`
    (as in _divisor) divides it.  Each member of `prev` is masked once:
    the mask of m*x_i is the mask of m with the x_i bit for exponent >= 1
    set, and for m[i] >= 1 the bit for >= 2 as well.  Returns the
    degree-(d+1) members and their cuts."""
    out: list[Mono] = []
    out_cuts = []
    masks = None if leads is None else [_divmask(m) for m in prev]
    for i, cut in enumerate(cuts):
        once, twice = 1 << (2 * i), 3 << (2 * i)
        for k in range(cut):
            m = prev[k]
            u = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if masks is None or _divisor(u, masks[k] | (twice if m[i] else once), leads) is None:
                out.append(u)
        out_cuts.append(len(out))
    return out, out_cuts


# ---------------------------------------------------------------------------
# ring and polynomials


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-)")


class PolyRing:
    """F_p[x_0..x_n] with named variables and the degrevlex order."""

    __slots__ = ("field", "names", "nvars", "_index", "_monos")

    def __init__(self, char: int | FieldSpec, names):
        self.field = char if isinstance(char, FieldSpec) else FieldSpec(char)
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError(f"duplicate variable names in {names}")
        for nm in names:
            if not _NAME_RE.fullmatch(nm):
                raise InputError(f"bad variable name {nm!r}")
        self.names = names
        self.nvars = len(names)
        self._index = {nm: i for i, nm in enumerate(names)}
        # degree -> (monomials, their cuts as in _next_degree)
        self._monos: list[tuple[list[Mono], list[int]]] = [
            ([(0,) * self.nvars], [1] * self.nvars)
        ]

    @property
    def char(self) -> int:
        return self.field.char

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.char == other.char
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.char, self.names))

    def __repr__(self):
        return f"PolyRing(char={self.char}, names={self.names})"

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: 1})

    def var(self, i: int) -> "Polynomial":
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): 1})

    def gens(self) -> list["Polynomial"]:
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exps, coeff: int = 1) -> "Polynomial":
        c = coeff % self.char
        return Polynomial(self, {tuple(exps): c} if c else {})

    def from_terms(self, terms: dict) -> "Polynomial":
        clean = {}
        for m, c in terms.items():
            c %= self.char
            if c:
                if len(m) != self.nvars:
                    raise InputError(f"exponent tuple {m} has wrong length")
                clean[tuple(m)] = c
        return Polynomial(self, clean)

    def monomials_of_degree(self, d: int) -> list[Mono]:
        """All degree-d monomials, sorted degrevlex-descending.

        Grown degree by degree with `_next_degree`, so the list comes out
        in order and no key is computed.  Every degree up to d is cached:
        callers share the returned list and must not modify it."""
        if d < 0:
            return []
        monos = self._monos
        while len(monos) <= d:
            monos.append(_next_degree(*monos[-1]))
        return monos[d][0]

    # -- parsing / printing ------------------------------------------------

    def parse(self, text: str) -> "Polynomial":
        """Parse an expanded polynomial: terms joined by + or -, factors are
        integers or names with optional ^power; '*' between factors is
        optional."""
        s = text.strip()
        if not s:
            raise InputError("empty polynomial")
        pos = 0
        tokens = []
        while pos < len(s):
            m = _TOKEN_RE.match(s, pos)
            if not m:
                raise InputError(f"cannot tokenize {s[pos:pos+10]!r} in {text!r}")
            tokens.append(m.group(1))
            pos = m.end()
        terms: dict = {}
        i = 0
        n = len(tokens)
        while i < n:
            sign = 1
            while i < n and tokens[i] in "+-":
                if tokens[i] == "-":
                    sign = -sign
                i += 1
            if i >= n:
                raise InputError(f"dangling sign in {text!r}")
            coeff = sign
            exps = [0] * self.nvars
            saw_factor = False
            while i < n and tokens[i] not in "+-":
                t = tokens[i]
                if t == "*":
                    i += 1
                    continue
                if t == "^":
                    raise InputError(f"misplaced '^' in {text!r}")
                if t.isdigit():
                    coeff *= int(t)
                    i += 1
                else:
                    if t not in self._index:
                        raise InputError(f"unknown variable {t!r} in {text!r}")
                    v = self._index[t]
                    i += 1
                    power = 1
                    if i < n and tokens[i] == "^":
                        if i + 1 >= n or not tokens[i + 1].isdigit():
                            raise InputError(f"bad exponent in {text!r}")
                        power = int(tokens[i + 1])
                        i += 2
                    exps[v] += power
                saw_factor = True
            if not saw_factor:
                raise InputError(f"empty term in {text!r}")
            m = tuple(exps)
            v = (terms.get(m, 0) + coeff) % self.char
            if v:
                terms[m] = v
            elif m in terms:
                del terms[m]
        return Polynomial(self, terms)

    def format_mono(self, m: Mono) -> str:
        parts = []
        for i, e in enumerate(m):
            if e == 1:
                parts.append(self.names[i])
            elif e > 1:
                parts.append(f"{self.names[i]}^{e}")
        return "*".join(parts) if parts else "1"

    def format(self, f: "Polynomial") -> str:
        if not f.terms:
            return "0"
        out = []
        for m in sorted(f.terms, key=DRL.key, reverse=True):
            c = f.terms[m]
            mono = self.format_mono(m)
            if mono == "1":
                chunk = str(c)
            elif c == 1:
                chunk = mono
            else:
                chunk = f"{c}*{mono}"
            out.append(chunk)
        return " + ".join(out)


class Polynomial:
    """Immutable-by-convention polynomial: a ring plus a terms dict."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __repr__(self):
        return self.ring.format(self)

    def __add__(self, other):
        out = dict(self.terms)
        _add_into(out, other.terms, 1, self.ring.char)
        return Polynomial(self.ring, out)

    def __sub__(self, other):
        out = dict(self.terms)
        _add_into(out, other.terms, -1, self.ring.char)
        return Polynomial(self.ring, out)

    def __neg__(self):
        p = self.ring.char
        return Polynomial(self.ring, {m: (-c) % p for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return Polynomial(self.ring, _mul_dict(self.terms, other.terms, self.ring.char))

    __rmul__ = __mul__

    def scale(self, c: int) -> "Polynomial":
        p = self.ring.char
        c %= p
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {m: (v * c) % p for m, v in self.terms.items()})

    def __pow__(self, k: int):
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def evaluate(self, point) -> int:
        """Evaluate at a tuple of field elements."""
        p = self.ring.char
        total = 0
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v = v * pow(int(x) % p, e, p) % p
            total = (total + v) % p
        return total

    def substitute_linear(self, matrix) -> "Polynomial":
        """Substitute x_i -> sum_j matrix[i][j] * x_j.

        Each monomial's image is built from the image of a smaller one by
        `_substitute`; `Ideal.change_coordinates` shares one such table of
        images between all the polynomials it moves.  When the matrix sends
        each x_i into span(x_i, ..., x_n) with matrix[i][i] != 0, the image
        of a monomial m is a nonzero multiple of m plus monomials below m in
        degrevlex, since moving a factor x_i to a later x_j lowers a
        monomial: the substitution keeps every lead."""
        ring = self.ring
        a = _matrix_rows(matrix, ring.nvars, ring.nvars, ring.char, "substitution matrix")
        return Polynomial(ring, _substitute(self.terms, *_linear_images(a, ring.nvars), ring.char))


# ---------------------------------------------------------------------------
# normal forms and Buchberger
#
# A monic polynomial that reduces others is held as a reducer tuple
# (lead, mask, key, tail): its lead monomial, the lead's _divmask, the
# lead's order key, and its other terms as (monomial, key, coefficient)
# triples.  Every reducer is homogeneous, so a shifted tail term has the
# degree of the term it cancels, whose key was packed and checked.


def _reducer(g: dict, order, p: int) -> tuple:
    """The reducer tuple of a nonzero polynomial, scaled to be monic."""
    keyed = sorted(((order.key(m), m, c) for m, c in g.items()), reverse=True)
    return _keyed_reducer([(m, k, c) for k, m, c in keyed], p)


def _keyed_reducer(terms: list, p: int) -> tuple:
    """The reducer tuple of (monomial, key, coefficient) terms listed in
    decreasing order, scaled to be monic."""
    lead, key, c = terms[0]
    inv = pow(c, -1, p)
    tail = [(m, k, v * inv % p) for m, k, v in terms[1:]]
    return lead, _divmask(lead), key, tail


def _add_shifted(
    work: dict, monos: dict, heap: list, r: tuple, q: Mono, kq: int, c: int, p: int
) -> None:
    """work += c * x^q * (tail of r).  Keys of the shifted terms are the tail
    keys plus kq = key(x^q); a key new to `work` is pushed on `heap`."""
    for m, k, cg in r[3]:
        k += kq
        v = work.get(k)
        if v is None:
            work[k] = c * cg % p
            monos[k] = tuple(map(add, m, q))
            heappush(heap, -k)
        else:
            work[k] = (v + c * cg) % p


def _pending(terms) -> tuple[dict, dict, list]:
    """The reduction state (work, monos, heap) of distinct (monomial, key,
    coefficient) terms."""
    work = {k: c for _, k, c in terms}
    monos = {k: m for m, k, _ in terms}
    heap = [-k for k in work]
    heapify(heap)
    return work, monos, heap


def _reduce(work: dict, monos: dict, heap: list, reducers: list, p: int) -> list:
    """Fully reduce the pending terms: `work` maps order keys to
    coefficients, `monos` keys to monomials, and `heap` holds each key of
    `work` once, negated.  Returns the remainder as (monomial, key,
    coefficient) triples in decreasing order."""
    rem = []
    while heap:
        k = -heappop(heap)
        c = work.pop(k)
        m = monos.pop(k)
        if not c:
            continue
        r = _divisor(m, _divmask(m), reducers)
        if r is None:
            rem.append((m, k, c))
        else:
            # the reducer's lead cancels c*m exactly; only its tail is added
            _add_shifted(work, monos, heap, r, tuple(map(sub, m, r[0])), k - r[2], p - c, p)
    return rem


def _normal_form_dict(h: dict, reducers: list, order, p: int) -> dict:
    """Fully reduce h against reducer tuples; terms in decreasing order."""
    state = _pending([(m, order.key(m), c) for m, c in h.items()])
    return {m: c for m, _, c in _reduce(*state, reducers, p)}


def buchberger(
    gens: list[dict], order, p: int, hilbert: list[int] | None = None
) -> ReducedBasis:
    """Reduced Groebner basis: a list of monic dicts sorted by lead term,
    which also hands back their reducer tuples (`ReducedBasis`).

    Buchberger's algorithm with the Gebauer-Moeller pair update: S-pairs
    are taken by least (degree of lcm, order key) and reduced on a heap of
    order keys.  The generators must be homogeneous, as those of every
    `Ideal` are: a reduction then stays in the degree of the term it
    starts from, an input term or an S-pair lcm, whose key was checked
    against DEGREE_LIMIT.  The reduced basis is unique for the order, so
    callers may compare ideals by comparing these lists.

    `hilbert`, if given, is the numerator over (1-t)^nvars of a series
    whose coefficients T(d) are a floor of the Hilbert function of R/I:
    T(d) <= HF(d) in every degree (Traverso's Hilbert-driven stop).  At
    the first pair of degree d, the degree-d monomials outside the leads
    found so far are grown from degree d - 1 by `_next_degree`; each new
    lead of degree d removes one.
    The leads lie in in(I), which has the Hilbert function of I in any
    order, so the count is at least HF(d), which is at least T(d).  Once
    the count equals T(d), both are equalities: the leads found span
    in(I)_d, so the pairs left in degree d reduce to zero and are dropped.
    A count below T(d) when degree d starts proves T(d) > HF(d) and
    raises ConsistencyError; a target above HF(d) that the count meets on
    the way down stops the degree early and goes undetected, so a target
    must be a proven floor.  `Ideal._groebner_entry` passes the exact
    numerator, from cached DRL leads or across a change of coordinates
    (which keeps the Hilbert function), and otherwise the ideal's floor
    if it has one (see `builders.complete_intersection` and
    `builders.scroll`).  The zero series, [0], is a floor of every
    Hilbert function: with it a degree stops once the leads cover all of
    its monomials, and then they cover every later degree too, so every
    pair from there on is dropped.  `koszul.artinian_reduction` sets it
    on its cuts, which it expects to be Artinian; on a positive-dimensional
    ideal it never stops a degree and only costs the growing of the
    monomials outside the leads, so it is no default.  A change that
    sends each x_i into span(x_i, ..., x_n) keeps every DRL lead as well,
    since moving a factor x_i to a later x_j lowers a monomial in
    degrevlex; that moved DRL basis is derived from the source basis
    without this function (see `Ideal.change_coordinates`).
    """
    inputs = []
    for g in gens:
        g = {m: c % p for m, c in g.items() if c % p}
        if g:
            inputs.append(_reducer(g, order, p))
    # deterministic starting order
    inputs.sort(key=lambda r: r[2])

    basis: list[tuple] = []  # every element found; pairs refer to indices
    active: list[int] = []  # indices of a minimal basis of what is found so far
    reducers: list[tuple] = []  # their reducer tuples
    pairs: list[tuple] = []  # heap of (lcm degree, lcm key, i, j, lcm, lcm mask)

    def update(h: int) -> None:
        """Gebauer-Moeller: add the pairs of h that criteria M and F keep,
        drop old pairs by criterion B, retire elements whose lead h divides."""
        nonlocal pairs, reducers
        lead_h, mask_h = basis[h][0], basis[h][1]
        # criterion B: lead(h) divides the pair's lcm, and the lcm is not an
        # lcm of h with either end
        kept = [
            pair
            for pair in pairs
            if mask_h & ~pair[5]
            or not all(map(le, lead_h, pair[4]))
            or tuple(map(max, basis[pair[2]][0], lead_h)) == pair[4]
            or tuple(map(max, basis[pair[3]][0], lead_h)) == pair[4]
        ]
        new = []
        for g in active:
            lead_g, mask_g = basis[g][0], basis[g][1]
            lcm = tuple(map(max, lead_g, lead_h))
            new.append((lcm, _divmask(lcm), not mask_g & mask_h, g))
        # criteria M and F: drop a new pair when another new pair, not yet
        # dropped, has an lcm dividing its lcm (of equal lcms, one is kept).
        # Coprime pairs take part in this filter but need no S-polynomial.
        chosen: list = []
        for idx, cand in enumerate(new):
            lcm, lmask, coprime, _ = cand
            if coprime or (
                _divisor(lcm, lmask, chosen) is None
                and _divisor(lcm, lmask, new[idx + 1 :]) is None
            ):
                chosen.append(cand)
        kept += [
            (sum(lcm), order.key(lcm), g, h, lcm, lmask)
            for lcm, lmask, coprime, g in chosen
            if not coprime
        ]
        heapify(kept)
        pairs = kept
        active[:] = [
            g
            for g in active
            if mask_h & ~basis[g][1] or not all(map(le, lead_h, basis[g][0]))
        ]
        active.append(h)
        reducers = [basis[g] for g in active]

    def add(rem: list) -> None:
        if rem:
            basis.append(_keyed_reducer(rem, p))
            update(len(basis) - 1)

    # inputs join reduced by the earlier ones, so every active lead is
    # divisible by no other
    for r in inputs:
        add(_reduce(*_pending([(r[0], r[2], 1)] + r[3]), reducers, p))

    # Hilbert-driven: the degree-`deg` monomials outside the leads when they
    # were grown; each new lead of degree d takes one, until HF(d) are left
    # and the basis holds `full` elements
    n = len(inputs[0][0]) if inputs else 0
    deg, std, cuts, full = 0, [(0,) * n], [1] * n, 0
    while pairs:
        d, key_lcm, i, j, lcm, _ = heappop(pairs)
        if hilbert is not None:
            if d > deg:
                while deg < d:
                    std, cuts = _next_degree(std, cuts, reducers)
                    deg += 1
                full = len(basis) + len(std) - sum(
                    c * math.comb(d - k + n - 1, n - 1) for k, c in enumerate(hilbert[: d + 1])
                )
                if full < len(basis):
                    raise ConsistencyError(f"Hilbert target above the leads' count in degree {d}")
            if len(basis) == full:
                continue
        work, monos, heap = _pending(())
        ri, rj = basis[i], basis[j]
        _add_shifted(work, monos, heap, ri, tuple(map(sub, lcm, ri[0])), key_lcm - ri[2], 1, p)
        _add_shifted(work, monos, heap, rj, tuple(map(sub, lcm, rj[0])), key_lcm - rj[2], p - 1, p)
        add(_reduce(work, monos, heap, reducers, p))

    # the active elements are a minimal basis
    return _tail_reduce(reducers, p)


class ReducedBasis(list):
    """A reduced Groebner basis: monic dicts sorted by lead, with their
    reducer tuples, in the same order, as `reducers`."""

    __slots__ = ("reducers",)


def _tail_reduce(minimal: list, p: int) -> ReducedBasis:
    """The reduced basis from the reducer tuples of a minimal Groebner basis
    (monic, no lead divides another).  Tails are reduced smallest lead
    first, so each tail meets only reducers already reduced: a tail term
    lies below its lead, so only smaller leads can divide it."""
    done: list[tuple] = []
    for r in sorted(minimal, key=lambda r: r[2]):
        rem = _reduce(*_pending(r[3]), done, p)
        done.append(_keyed_reducer([(r[0], r[2], 1)] + rem, p))
    basis = ReducedBasis({r[0]: 1} | {m: c for m, _, c in r[3]} for r in done)
    basis.reducers = done
    return basis


# ---------------------------------------------------------------------------
# Hilbert series of a monomial ideal (pivot recursion)


def _minimalize(gens: list[Mono]) -> tuple[Mono, ...]:
    gens = sorted(set(gens), key=lambda m: (sum(m), m))
    out: list[tuple[Mono, int]] = []
    for g in gens:
        mask = _divmask(g)
        if _divisor(g, mask, out) is None:
            out.append((g, mask))
    return tuple(g for g, _ in out)


def _hilbert_numerator(gens: tuple[Mono, ...], memo: dict) -> dict[int, int]:
    """Numerator of the Hilbert series of R/(gens) over (1-t)^nvars,
    as a dict degree -> coefficient."""
    if not gens:
        return {0: 1}
    if any(sum(g) == 0 for g in gens):
        return {}  # unit ideal: series 0
    got = memo.get(gens)
    if got is not None:
        return got
    # pure powers of distinct variables: product formula
    supports = [tuple(i for i, e in enumerate(g) if e) for g in gens]
    if all(len(s) == 1 for s in supports) and len({s[0] for s in supports}) == len(gens):
        out = {0: 1}
        for g in gens:
            d = sum(g)
            nxt: dict[int, int] = {}
            for k, c in out.items():
                nxt[k] = nxt.get(k, 0) + c
                nxt[k + d] = nxt.get(k + d, 0) - c
            out = {k: c for k, c in nxt.items() if c}
        memo[gens] = out
        return out
    # pivot on the most frequent variable among generators of support >= 2:
    # both branches then strictly drop the total degree, so the recursion
    # terminates (a pivot from a pure power can reproduce the same set)
    nvars = len(gens[0])
    counts = [0] * nvars
    eligible = set()
    for g in gens:
        sup = [i for i, e in enumerate(g) if e]
        for i in sup:
            counts[i] += 1
        if len(sup) >= 2:
            eligible.update(sup)
    j = max(eligible, key=lambda i: (counts[i], -i))
    unit = tuple(1 if i == j else 0 for i in range(nvars))
    plus = _minimalize([g for g in gens if g[j] == 0] + [unit])
    colon = _minimalize(
        [tuple(e - 1 if i == j and e else e for i, e in enumerate(g)) for g in gens]
    )
    n_plus = _hilbert_numerator(plus, memo)
    n_colon = _hilbert_numerator(colon, memo)
    out = dict(n_plus)
    for k, c in n_colon.items():
        out[k + 1] = out.get(k + 1, 0) + c
    out = {k: c for k, c in out.items() if c}
    memo[gens] = out
    return out


@dataclass(frozen=True)
class HilbertData:
    """dimension = dim of the projective zero set (-1 if empty),
    degree = its degree (0 if empty), coeffs = the Hilbert polynomial
    HP(d) = sum coeffs[k] d^k as exact fractions."""

    dimension: int
    degree: int
    coeffs: tuple[Fraction, ...]

    def __call__(self, d: int) -> int:
        v = sum(c * d**k for k, c in enumerate(self.coeffs))
        if v.denominator != 1:
            raise ConsistencyError(f"Hilbert polynomial non-integral at {d}: {v}")
        return int(v)


def _cancel_one_minus_t(num: list[int]) -> tuple[list[int], int]:
    """(h, s) with num = (1-t)^s h and h(1) != 0, for a nonzero numerator."""
    s = 0
    while sum(num) == 0:
        acc = 0
        quot = []
        for c in num[:-1]:
            acc += c
            quot.append(acc)
        num = quot if quot else [0]
        s += 1
    return num, s


def _poly_from_binomials(numer: list[int], dim_plus1: int) -> tuple[Fraction, ...]:
    """Expand HP(d) = sum_k numer[k] * C(d - k + D - 1, D - 1), D = dim_plus1,
    into coefficients of powers of d (exact fractions)."""
    D = dim_plus1
    total = [Fraction(0)] * D
    fact = Fraction(1, math.factorial(D - 1))
    for k, c in enumerate(numer):
        if not c:
            continue
        # C(d - k + D - 1, D - 1) = prod_{j=1..D-1} (d + (D - j - k)) / (D-1)!
        poly = [Fraction(1)]
        for j in range(1, D):
            const = Fraction(D - j - k)
            poly = [Fraction(0)] + poly  # multiply by d
            for idx in range(len(poly) - 1):
                poly[idx] += const * poly[idx + 1]
        for idx, v in enumerate(poly):
            total[idx] += c * fact * v
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    return tuple(total)


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """A finitely generated ideal in a PolyRing.

    Generators are stored as given (zero generators dropped) and must be
    homogeneous (InputError otherwise).  Groebner bases, standard monomials
    and Hilbert data are cached.
    """

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        polys = []
        for g in gens:
            if isinstance(g, str):
                g = ring.parse(g)
            if g.ring != ring:
                raise InputError("generator from a different ring")
            if not g.is_homogeneous():
                raise InputError(f"inhomogeneous generator: {g!r}")
            if g:
                polys.append(g)
        self.gens = tuple(polys)
        # order name -> (reduced GB, its reducer tuples); the reducers
        # carry the lead terms and their masks
        self._gb: dict[str, tuple[list[dict], list[tuple]]] = {}
        # degree -> (standard monomials, their positions, their cuts as in
        # _next_degree), filled from degree 0 upward
        self._std: list[tuple[list[Mono], dict[Mono, int], list[int]]] = []
        self._nf_cache: dict = {}
        self._hilbert: HilbertData | None = None
        # the Hilbert numerator, from the DRL leads or a change of coordinates
        self._numerator: list[int] | None = None
        # the numerator of a proven floor of the Hilbert function, a
        # `buchberger` target while no exact numerator is known; never
        # read as the Hilbert numerator itself
        self._floor: list[int] | None = None
        # (source DRL basis, forms, images) of a change of coordinates that
        # keeps the DRL leads, until the DRL basis is first read
        self._moved_from: tuple | None = None

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens in {self.ring!r})"

    # -- Groebner ----------------------------------------------------------

    def _groebner_entry(self, order) -> tuple[list[dict], list[tuple]]:
        got = self._gb.get(order.name)
        if got is None:
            p = self.ring.char
            if order.name == DRL.name and self._moved_from is not None:
                # see change_coordinates: the substituted source basis is a
                # Groebner basis with the same leads
                basis, forms, images = self._moved_from
                self._moved_from = None
                gb = _tail_reduce(
                    [_reducer(_substitute(g, forms, images, p), DRL, p) for g in basis], p
                )
            else:
                # the exact Hilbert target (from the cached DRL leads or
                # carried over `change_coordinates`), else the floor, if any
                known = self._numerator is not None or DRL.name in self._gb
                target = self.hilbert_series_numerator() if known else self._floor
                gb = buchberger([g.terms for g in self.gens], order, p, target)
            got = (gb, gb.reducers)
            self._gb[order.name] = got
        return got

    def groebner(self, order=DRL) -> list[dict]:
        return self._groebner_entry(order)[0]

    def lead_monomials(self, order=DRL) -> list[Mono]:
        return [r[0] for r in self._groebner_entry(order)[1]]

    def is_unit_ideal(self) -> bool:
        return any(not any(r[0]) for r in self._groebner_entry(DRL)[1])

    def normal_form(self, f: Polynomial, order=DRL) -> Polynomial:
        reducers = self._groebner_entry(order)[1]
        return Polynomial(
            self.ring, _normal_form_dict(f.terms, reducers, order, self.ring.char)
        )

    def contains(self, f: Polynomial) -> bool:
        return not self.normal_form(f).terms

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def same_ideal(self, other: "Ideal") -> bool:
        """Exact ideal equality via uniqueness of the reduced GB."""
        if self.ring != other.ring:
            return False
        return self.groebner() == other.groebner()

    # -- graded pieces ------------------------------------------------------

    def standard_monomials(self, d: int) -> list[Mono]:
        """Monomials of degree d not divisible by any GB lead term, sorted
        degrevlex-descending.  These represent a basis of (R/I)_d.

        Grown from the standard monomials of degree d - 1, never from a
        scan of every monomial of degree d (see `_standard`); callers share
        the cached list and must not modify it."""
        return self._standard(d)[0]

    def standard_index(self, d: int) -> dict[Mono, int]:
        return self._standard(d)[1]

    def _standard(self, d: int) -> tuple[list[Mono], dict[Mono, int], list[int]]:
        """The standard monomials of degree d, their positions and their
        cuts (as in `_next_degree`).

        They form an order ideal, so degree d grows from degree d - 1 by
        `_next_degree`, which tests only the products of standard monomials
        against the lead terms.  Every degree from the highest cached one
        up to d is filled by a loop, so a high degree asked first costs no
        recursion."""
        if d < 0:
            return [], {}, []
        std = self._std
        if len(std) <= d:
            reducers = self._groebner_entry(DRL)[1]
            if not std:
                one = (0,) * self.ring.nvars
                monos = [one] if _divisor(one, 0, reducers) is None else []
                std.append((monos, {m: 0 for m in monos}, [len(monos)] * self.ring.nvars))
            while len(std) <= d:
                monos, cuts = _next_degree(std[-1][0], std[-1][2], reducers)
                std.append((monos, {m: i for i, m in enumerate(monos)}, cuts))
        return std[d]

    def hilbert_function(self, d: int) -> int:
        """h(d) = dim_k (R/I)_d, by counting standard monomials."""
        if d < 0:
            return 0
        return len(self.standard_monomials(d))

    def nonstandard_monomials(self, d: int) -> list[Mono]:
        standard = self.standard_index(d)
        return [m for m in self.ring.monomials_of_degree(d) if m not in standard]

    def graded_basis(self, d: int) -> list[Polynomial]:
        """Basis of the degree-d piece I_d: {m - NF(m)} over nonstandard m.

        Each element has a single nonstandard monomial (its own m), so the
        coefficient vector of any element of I_d on this basis is just its
        coefficients at the nonstandard monomials.
        """
        out = []
        for m in self.nonstandard_monomials(d):
            nf = self.normal_form(self.ring.monomial(m))
            out.append(self.ring.monomial(m) - nf)
        return out

    def nf_times_var(self, mono: Mono, var: int) -> dict:
        """Cached normal form of x_var * mono (mono given as an exponent
        tuple).  Hot path for Koszul matrix assembly.

        Every DRL basis this ideal holds is reduced, so no other lead
        divides a lead and the terms of a tail are standard: when the
        product is itself the lead of a basis element, its normal form is
        that element's tail negated, in the same (decreasing) order, and
        no reduction runs."""
        key = (mono, var)
        got = self._nf_cache.get(key)
        if got is None:
            e = list(mono)
            e[var] += 1
            m2 = tuple(e)
            r = _divisor(m2, _divmask(m2), self._groebner_entry(DRL)[1])
            if r is None:
                got = {m2: 1}
            elif r[0] == m2:
                p = self.ring.char
                got = {m: p - c for m, _, c in r[3]}
            else:
                got = self.normal_form(self.ring.monomial(m2)).terms
            self._nf_cache[key] = got
        return got

    # -- Hilbert data --------------------------------------------------------

    def hilbert_series_numerator(self) -> list[int]:
        """Numerator of the Hilbert series of R/I over (1-t)^nvars (exact,
        from the lead-term ideal, or from the ideal this one was moved from
        by `change_coordinates`).  Cached: callers must not modify it."""
        if self._numerator is None:
            num = _hilbert_numerator(_minimalize(self.lead_monomials()), {})
            self._numerator = [num.get(k, 0) for k in range(max(num) + 1)] if num else [0]
        return self._numerator

    def hilbert_data(self) -> HilbertData:
        """Dimension, degree and Hilbert polynomial of Proj(R/I).

        Computed exactly from the Hilbert series, then cross-checked on
        enumerated Hilbert function values (finite differences must
        stabilize; any disagreement raises ConsistencyError).  With the
        series reduced to h(t) / (1-t)^D, r = deg h, HF(d) equals
        sum_k h_k C(d - k + D - 1, D - 1), and each binomial agrees with
        its polynomial in d once d - k + D - 1 >= 0: HF(d) = HP(d) for
        every d >= r - D + 1 (Hilbert-Serre), and not always at r - D (for
        a quadric and a cubic in P^3, HF(1) = 4, HP(1) = 3).  So the D + 1
        samples start at max(0, r - D + 1).  HP has degree D - 1, and two
        such polynomials that agree at D + 1 points are equal, so any
        window where HF = HP must hold catches the same wrong HPs."""
        if self._hilbert is not None:
            return self._hilbert
        nv = self.ring.nvars
        num = self.hilbert_series_numerator()
        if all(c == 0 for c in num):
            data = HilbertData(-1, 0, (Fraction(0),))
            self._hilbert = data
            return data
        reduced, s = _cancel_one_minus_t(num)
        D = nv - s  # Krull dimension of R/I
        if D <= 0:
            data = HilbertData(-1, 0, (Fraction(0),))
            self._hilbert = data
            return data
        degree = sum(reduced)
        coeffs = _poly_from_binomials(reduced, D)
        data = HilbertData(D - 1, degree, coeffs)
        # independent route: enumerated h(d) from where HF = HP must hold,
        # with r + 1 = len(reduced)
        d0 = max(0, len(reduced) - D)
        samples = [self.hilbert_function(d) for d in range(d0, d0 + D + 1)]
        diffs = list(samples)
        for _ in range(D - 1):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if len(diffs) >= 2 and diffs[0] != diffs[1]:
            raise ConsistencyError(
                f"Hilbert function not stabilized at degree {d0}: differences {diffs}"
            )
        for d, h in zip(range(d0, d0 + D + 1), samples):
            if data(d) != h:
                raise ConsistencyError(
                    f"Hilbert polynomial/function mismatch at degree {d}: {data(d)} vs {h}"
                )
        self._hilbert = data
        return data

    def krull_dimension(self) -> int:
        """dim R/I, read off the Hilbert numerator alone: nvars less the
        power of 1 - t that divides it, and -1 for the unit ideal.  Unlike
        `hilbert_data`, it builds no Hilbert polynomial and samples no
        Hilbert function."""
        num = self.hilbert_series_numerator()
        return self.ring.nvars - _cancel_one_minus_t(num)[1] if any(num) else -1

    # -- ideal operations ----------------------------------------------------

    def colon_var_saturation(self, i: int) -> "Ideal":
        """I : x_i^infinity, by Bayer-Stillman.

        Take the reduced GB in degrevlex with x_i last.  For homogeneous g
        in that order, x_i divides g exactly when it divides lead(g), so
        dividing each element by its largest power of x_i gives a GB of the
        colon.  When no element is divisible by x_i, I : x_i = I and `self`
        is returned."""
        n = self.ring.nvars
        gb = self.groebner(DRL if i == n - 1 else DegRevLex(last=i, nvars=n))
        powers = [min(m[i] for m in g) for g in gb]
        if not any(powers):
            return self
        stripped = [
            {m[:i] + (m[i] - k,) + m[i + 1 :]: c for m, c in g.items()} for g, k in zip(gb, powers)
        ]
        return Ideal(self.ring, [Polynomial(self.ring, g) for g in stripped])

    def saturate_irrelevant(self) -> "Ideal":
        """The saturation I^sat = I : m^infinity, m = (x_0, ..., x_n): the
        largest ideal with the same graded pieces in all high degrees.

        For a linear form l, J = I : l^infinity contains I^sat (f * m^k in I
        gives l^k * f in I).  If R/J has the Hilbert polynomial of R/I, then
        J / I^sat has finite length inside R/I^sat, which has no m-torsion,
        so J = I^sat (Bayer-Stillman).  The forms l are tried in one fixed
        list: the nonzero forms with coefficients 0 and 1, fewest terms
        first, and among the variables x_n, x_{n-1}, ..., x_0.  A variable
        is a colon in its own order.  Any other l, whose first variable is
        x_k, is moved to x_k by x_k -> x_k - (l - x_k); the colon by x_k is
        taken there and moved back by x_k -> l.  Both changes send each x_i into
        span(x_i, ..., x_n): the moved ideal carries the Hilbert numerator,
        a Buchberger target in the colon's order, and the DRL basis of J
        comes from the colon's by substitution.

        I : x_n^infinity, tried first, reads the DRL basis, which is usually
        cached.  If it is I, then x_n is a nonzerodivisor on R/I, and I is
        saturated and returned as is.  Otherwise the saturation is returned
        with its reduced DRL basis, in order, as its generators, and that
        basis cached.  A form that fails lies in an associated prime of
        I^sat: the hyperplane l = 0 contains a component.  When every form
        fails, InputError is raised; over F_2 the list holds every linear
        form, so there no linear form is a nonzerodivisor on R/I^sat."""
        ring, n = self.ring, self.ring.nvars

        def substitution(k, row):
            """x_k -> sum_j row[j] x_j, every other variable kept."""
            a = [[int(i == j) for j in range(n)] for i in range(n)]
            a[k] = row
            return a

        for size in range(1, n + 1):
            for support in itertools.combinations(range(n - 1, -1, -1), size):
                k = support[-1]
                form = [int(j in support) for j in range(n)]
                moved = self
                if size > 1:
                    moved = self.change_coordinates(
                        substitution(k, [c if j == k else -c for j, c in enumerate(form)])
                    )
                colon = moved.colon_var_saturation(k)
                if colon is moved:
                    if k == n - 1:
                        return self
                    sat = self
                elif colon.hilbert_data() != self.hilbert_data():
                    continue
                else:
                    sat = colon if size == 1 else colon.change_coordinates(substitution(k, form))
                entry = sat._groebner_entry(DRL)
                out = Ideal(ring, [Polynomial(ring, dict(g)) for g in entry[0]])
                out._gb[DRL.name] = entry
                return out
        raise InputError(
            f"cannot saturate over F_{ring.char}: for every linear form l with "
            "coefficients 0 and 1, the hyperplane l = 0 contains a component "
            "of the scheme"
        )

    def equal_as_schemes(self, other: "Ideal") -> bool:
        """Do the two homogeneous ideals cut out the same closed subscheme,
        i.e. are their saturations equal?"""
        if self.ring != other.ring:
            raise InputError("scheme comparison needs a common ring")
        a = self.saturate_irrelevant()
        b = other.saturate_irrelevant()
        return a.same_ideal(b)

    def eliminate(self, drop: tuple[int, ...]) -> "Ideal":
        """Intersection with the subring omitting the `drop` variables,
        returned in the smaller ring (names preserved).

        The block order compares the kept variables by degrevlex, and the
        block basis is sorted by lead, so its elements free of `drop` are
        the reduced DRL basis of the result, in order, and are cached so.
        A term with a dropped variable ranks above every term without one,
        so an element is free of `drop` when its lead is; and the block key
        of a monomial free of `drop` is its DRL key in the smaller ring, so
        the reducer tuples carry over with their monomials restricted."""
        order = BlockOrder(drop, self.ring.nvars)
        ring2 = PolyRing(self.ring.field, tuple(self.ring.names[i] for i in order.rest))

        def small(m: Mono) -> Mono:
            return tuple(m[i] for i in order.rest)

        reducers = [
            (small(lead), _divmask(small(lead)), key, [(small(m), k, c) for m, k, c in tail])
            for lead, _, key, tail in self._groebner_entry(order)[1]
            if not any(lead[i] for i in order.first)
        ]
        kept = [{r[0]: 1} | {m: c for m, _, c in r[3]} for r in reducers]
        out = Ideal(ring2, [Polynomial(ring2, dict(g)) for g in kept])
        out._gb[DRL.name] = (kept, reducers)
        return out

    def change_coordinates(self, matrix) -> "Ideal":
        """Apply the substitution x_i -> sum_j matrix[i][j] x_j to every
        generator.  The matrix must be invertible mod p.  All generators
        share one table of monomial images (`_substitute`).

        When this ideal holds its DRL basis, the result takes its Hilbert
        numerator, which an invertible change keeps.  If moreover the
        matrix sends each x_i into span(x_i, ..., x_n) (matrix[i][i] != 0
        and matrix[i][j] = 0 for j < i), the result derives its DRL basis
        from this one when it is first read, without Buchberger.  Moving a
        factor x_i to a later x_j lowers a monomial in degrevlex, so each
        substituted basis element keeps its lead.  Those leads generate the
        initial ideal of this ideal, which has the Hilbert function of the
        result, and they lie in the result's initial ideal; so the two
        initial ideals are equal and the substituted basis is a Groebner
        basis.  Made monic and tail-reduced, it is the unique reduced basis
        that `buchberger` would return."""
        n = self.ring.nvars
        p = self.ring.char
        a = _matrix_rows(matrix, n, n, p, "coordinate change")
        if matrix_rank(a, p) != n:
            raise InputError("coordinate change matrix is singular")
        forms, images = _linear_images(a, n)
        out = Ideal(
            self.ring,
            [Polynomial(self.ring, _substitute(g.terms, forms, images, p)) for g in self.gens],
        )
        if DRL.name in self._gb:
            out._numerator = self.hilbert_series_numerator()
            if all(a[i][i] and not any(a[i][:i]) for i in range(n)):
                out._moved_from = (self._gb[DRL.name][0], forms, images)
        return out

    def restrict(self, ring: PolyRing, matrix) -> "Ideal":
        """The restriction of this ideal to a linear subspace, in the
        coordinates y_0..y_{k-1} of `ring`: substitute x_i -> sum_j
        matrix[i][j] y_j in every generator, with one row of the matrix
        per variable x_i and one column per y_j.  Entries that are 0 mod p
        drop out of the forms, and all generators share one table of
        monomial images (`_substitute`).  Unlike `change_coordinates`, the
        map need not be invertible, so nothing about the result's
        Groebner basis or Hilbert series is carried over."""
        p = self.ring.char
        if ring.char != p:
            raise InputError("restriction to a ring over a different field")
        a = _matrix_rows(matrix, self.ring.nvars, ring.nvars, p, "restriction matrix")
        forms, images = _linear_images(a, ring.nvars)
        return Ideal(ring, [Polynomial(ring, _substitute(g.terms, forms, images, p)) for g in self.gens])


# ---------------------------------------------------------------------------
# embedded schemes


class EmbeddedScheme:
    """A closed subscheme of P^n over F_p presented by a homogeneous ideal.

    Validation (the generators are homogeneous, as in every Ideal): the
    ideal is not the unit ideal, and the scheme is nondegenerate (no
    linear forms in the ideal).  The `labels` dict carries provenance
    (builder recipe, expected invariants) and is purely informational.
    """

    def __init__(self, ideal: Ideal, labels: dict | None = None):
        if ideal.is_unit_ideal():
            raise InputError("unit ideal does not define a subscheme of P^n")
        for lm in ideal.lead_monomials():
            if sum(lm) == 1:
                raise InputError(
                    "ideal contains a linear form; the scheme is degenerate "
                    f"(lead monomial {ideal.ring.format_mono(lm)})"
                )
        self._adopt(ideal, labels)

    def _adopt(self, ideal: Ideal, labels: dict | None) -> None:
        self.ideal = ideal
        self.ring = ideal.ring
        self.labels = dict(labels or {})
        self._parametrization = None  # set by builders for point sampling
        self._koszul_ranks: dict = {}
        self._cocycle_bases: dict = {}  # koszul.k_p1_cocycle_basis, by p
        self._reduction = None  # koszul.artinian_reduction, when first asked

    def change_coordinates(self, matrix, labels: dict | None = None) -> "EmbeddedScheme":
        """The scheme under `Ideal.change_coordinates`.  An invertible linear
        change keeps it homogeneous, non-unit and nondegenerate, so it is not
        validated again, and its DRL basis is computed when first read.  When
        the matrix sends each x_i into span(x_i, ..., x_n), as
        `syzgeo.move_point_matrix` does for a point whose last coordinate is
        nonzero, every DRL lead is kept, and that basis is the validated
        source basis substituted, made monic and tail-reduced."""
        moved = object.__new__(EmbeddedScheme)
        moved._adopt(self.ideal.change_coordinates(matrix), labels)
        return moved

    @property
    def ambient_dim(self) -> int:
        return self.ring.nvars - 1

    @property
    def char(self) -> int:
        return self.ring.char

    def __repr__(self):
        kind = self.labels.get("kind", "scheme")
        return f"<{kind} in P^{self.ambient_dim} over F_{self.char}>"

    def hilbert_function(self, d: int) -> int:
        return self.ideal.hilbert_function(d)

    def hilbert_data(self) -> HilbertData:
        return self.ideal.hilbert_data()

    def quadrics(self) -> list[Polynomial]:
        return self.ideal.graded_basis(2)

    def contains(self, coords) -> bool:
        p = self.char
        pt = [int(c) % p for c in coords]
        if all(c == 0 for c in pt):
            raise InputError("all-zero coordinates do not define a point")
        return all(g.evaluate(pt) == 0 for g in self.ideal.gens)


# ---------------------------------------------------------------------------
# ideal text format


def parse_ideal_text(text: str) -> Ideal:
    """Parse the plain-text ideal format:

        # comment
        field 32003
        ring x0 x1 x2 x3
        ideal
        x0*x2 - x1^2
        ...

    Returns an Ideal (its ring carries the field and variable names).
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if len(lines) < 3:
        raise InputError("ideal text needs 'field', 'ring' and 'ideal' lines")
    if not lines[0].startswith("field"):
        raise InputError(f"expected 'field <p>' first, got {lines[0]!r}")
    try:
        char = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise InputError(f"bad field line {lines[0]!r}") from None
    if not lines[1].startswith("ring"):
        raise InputError(f"expected 'ring <names...>', got {lines[1]!r}")
    names = tuple(lines[1].split()[1:])
    if not names:
        raise InputError("ring line lists no variables")
    if lines[2] != "ideal":
        raise InputError(f"expected 'ideal' line, got {lines[2]!r}")
    ring = PolyRing(char, names)
    gens = [ring.parse(s) for s in lines[3:]]
    return Ideal(ring, gens)


def format_ideal_text(ideal: Ideal, comments=()) -> str:
    out = [f"# {c}" for c in comments]
    out.append(f"field {ideal.ring.char}")
    out.append("ring " + " ".join(ideal.ring.names))
    out.append("ideal")
    for g in ideal.gens:
        out.append(ideal.ring.format(g))
    return "\n".join(out) + "\n"
