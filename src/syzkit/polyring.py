"""Graded polynomial rings over F_p and homogeneous ideals.

Monomials are exponent tuples; polynomials are dicts mapping exponent
tuples to nonzero coefficients in [1, p).  The default term order is
degree-reverse-lexicographic with x0 > x1 > ... ; elimination uses block
orders (degrevlex inside each block).  All bases handed out (standard
monomials, graded ideal pieces, Groebner bases) are sorted canonically so
downstream matrix layouts are reproducible.

Groebner bases are computed by Buchberger's algorithm, then inter-reduced:
the reduced GB is unique for a given order, which several equality tests
below rely on.  Inhomogeneous inputs are supported (needed for ideal
intersection via the t-trick); everything else in the package is graded.

- Order keys are exact Python ints that compare as the order does and add
  under monomial multiplication.  They pack 16 bits per exponent, so a
  monomial of total degree DEGREE_LIMIT (2**16) or more raises BudgetError.
- A normal form keeps its pending terms on a heap of those keys and pops
  the largest; a reducer's shifted tail is keyed by adding one int per
  term, and its lead, which cancels exactly, is skipped.
- Lead terms carry a divisibility mask that rules out most non-divisors
  before the exponents are compared, and detects coprime pairs.
- S-pairs go through the Gebauer-Moeller update (criteria B, M and F) and
  are taken by least lcm.
- An Ideal caches its reduced GB, with the lead terms and keyed tails, in
  one entry per order.  Every GB lives there, eliminations included, and
  that entry is the only caller of `buchberger`.  Colons I : x_i^infinity
  read the GB in degrevlex with x_i last (Bayer-Stillman), in the same ring.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
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


class DegRevLex:
    """Degree reverse lexicographic order, x0 > x1 > ... > xn.  With
    `last=i`, x_i moves below every other variable, which keep their order."""

    def __init__(self, last: int | None = None):
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
        self.first = tuple(sorted(first))
        self.rest = tuple(i for i in range(nvars) if i not in set(first))
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


def _square_rows(matrix, n: int, p: int, what: str) -> list[list[int]]:
    """An n x n matrix as int rows reduced mod p; InputError otherwise."""
    a = [[int(v) % p for v in row] for row in matrix]
    if len(a) != n or any(len(row) != n for row in a):
        raise InputError(f"{what} must be {n}x{n}")
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
        self._monos: dict[int, list[Mono]] = {}

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

        Cached per degree: callers share the returned list and must not
        modify it."""
        if d < 0:
            return []
        got = self._monos.get(d)
        if got is None:
            got = []
            for combo in itertools.combinations_with_replacement(range(self.nvars), d):
                e = [0] * self.nvars
                for i in combo:
                    e[i] += 1
                got.append(tuple(e))
            got.sort(key=DRL.key, reverse=True)
            self._monos[d] = got
        return got

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

    def lead_monomial(self, order=DRL) -> Mono:
        return max(self.terms, key=order.key)

    def monic(self, order=DRL) -> "Polynomial":
        if not self.terms:
            return self
        inv = self.ring.field.inv(self.terms[self.lead_monomial(order)])
        return self.scale(inv)

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
        """Substitute x_i -> sum_j matrix[i][j] * x_j."""
        ring = self.ring
        p = ring.char
        a = _square_rows(matrix, ring.nvars, p, "substitution matrix")
        lin = []
        for i in range(ring.nvars):
            row = {}
            for j in range(ring.nvars):
                c = a[i][j]
                if c:
                    e = [0] * ring.nvars
                    e[j] = 1
                    row[tuple(e)] = c
            lin.append(row)
        # cache powers of each linear form as needed
        powers: dict[tuple[int, int], dict] = {}

        def lin_pow(i, k):
            if k == 0:
                return {(0,) * ring.nvars: 1}
            got = powers.get((i, k))
            if got is None:
                got = _mul_dict(lin_pow(i, k - 1), lin[i], p)
                powers[(i, k)] = got
            return got

        out: dict = {}
        for m, c in self.terms.items():
            term = {(0,) * ring.nvars: c}
            for i, e in enumerate(m):
                if e:
                    term = _mul_dict(term, lin_pow(i, e), p)
            _add_into(out, term, 1, p)
        return Polynomial(ring, out)


# ---------------------------------------------------------------------------
# normal forms and Buchberger
#
# A monic polynomial that reduces others is held as a reducer tuple
# (lead, mask, key, excess, tail): its lead monomial, the lead's _divmask,
# the lead's order key, how far the total degree of its terms rises above
# the lead's (positive only for inhomogeneous input under a block order),
# and its other terms as (monomial, key, coefficient) triples.


def _reducer(g: dict, order, p: int) -> tuple:
    """The reducer tuple of a nonzero polynomial, scaled to be monic."""
    keyed = sorted(((order.key(m), m, c) for m, c in g.items()), reverse=True)
    return _keyed_reducer([(m, k, c) for k, m, c in keyed], p)


def _keyed_reducer(terms: list, p: int) -> tuple:
    """The reducer tuple of (monomial, key, coefficient) terms listed in
    decreasing order, scaled to be monic."""
    lead, key, c = terms[0]
    inv = pow(c, -1, p)
    excess = max(sum(m) for m, _, _ in terms) - sum(lead)
    tail = [(m, k, v * inv % p) for m, k, v in terms[1:]]
    return lead, _divmask(lead), key, excess, tail


def _add_shifted(
    work: dict, monos: dict, heap: list, r: tuple, q: Mono, kq: int, c: int, p: int
) -> None:
    """work += c * x^q * (tail of r).  Keys of the shifted terms are the tail
    keys plus kq = key(x^q); a key new to `work` is pushed on `heap`."""
    lead, _, _, excess, tail = r
    if excess > 0 and sum(lead) + sum(q) + excess >= DEGREE_LIMIT:
        raise BudgetError(
            f"reduction would reach total degree {sum(lead) + sum(q) + excess}, "
            f"past the term-order limit {DEGREE_LIMIT - 1}"
        )
    for m, k, cg in tail:
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


def buchberger(gens: list[dict], order, p: int) -> list[dict]:
    """Reduced Groebner basis (list of monic dicts, sorted by lead term).

    Buchberger's algorithm with the Gebauer-Moeller pair update: S-pairs
    are taken by least lcm and reduced on a heap of order keys.  Accepts
    inhomogeneous input.  The reduced basis is unique for the order, so
    callers may compare ideals by comparing these lists.
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
    pairs: list[tuple] = []  # heap of (lcm key, i, j, lcm, lcm mask)

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
            if mask_h & ~pair[4]
            or not all(map(le, lead_h, pair[3]))
            or tuple(map(max, basis[pair[1]][0], lead_h)) == pair[3]
            or tuple(map(max, basis[pair[2]][0], lead_h)) == pair[3]
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
            (order.key(lcm), g, h, lcm, lmask)
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
        add(_reduce(*_pending([(r[0], r[2], 1)] + r[4]), reducers, p))

    while pairs:
        key_lcm, i, j, lcm, _ = heappop(pairs)
        work, monos, heap = _pending(())
        ri, rj = basis[i], basis[j]
        _add_shifted(work, monos, heap, ri, tuple(map(sub, lcm, ri[0])), key_lcm - ri[2], 1, p)
        _add_shifted(work, monos, heap, rj, tuple(map(sub, lcm, rj[0])), key_lcm - rj[2], p - 1, p)
        add(_reduce(work, monos, heap, reducers, p))

    # the active elements are a minimal basis; reduce their tails, smallest
    # lead first, so each tail meets only reducers already reduced (a tail
    # term lies below the lead, so only smaller leads can divide it)
    done: list[tuple] = []
    for r in sorted(reducers, key=lambda r: r[2]):
        rem = _reduce(*_pending(r[4]), done, p)
        done.append(_keyed_reducer([(r[0], r[2], 1)] + rem, p))
    return [{r[0]: 1} | {m: c for m, _, c in r[4]} for r in done]


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

    Generators are stored as given (zero generators dropped).  Groebner
    bases, standard monomials and Hilbert data are cached.  Most methods
    require homogeneous generators; `groebner` and `eliminate` do not.
    """

    def __init__(self, ring: PolyRing, gens, require_homogeneous: bool = True):
        self.ring = ring
        polys = []
        for g in gens:
            if isinstance(g, str):
                g = ring.parse(g)
            if g.ring != ring:
                raise InputError("generator from a different ring")
            if require_homogeneous and not g.is_homogeneous():
                raise InputError(f"inhomogeneous generator: {g!r}")
            if g:
                polys.append(g)
        self.gens = tuple(polys)
        # order name -> (reduced GB, its reducer tuples), stored by one
        # assignment; the reducers carry the lead terms and their masks
        self._gb: dict[str, tuple[list[dict], list[tuple]]] = {}
        # degree -> (standard monomials, their positions), stored by one
        # assignment so a concurrent reader never sees half an entry
        self._std: dict[int, tuple[list[Mono], dict[Mono, int]]] = {}
        self._nf_cache: dict = {}
        self._hilbert: HilbertData | None = None

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens in {self.ring!r})"

    # -- Groebner ----------------------------------------------------------

    def _groebner_entry(self, order) -> tuple[list[dict], list[tuple]]:
        got = self._gb.get(order.name)
        if got is None:
            p = self.ring.char
            gb = buchberger([g.terms for g in self.gens], order, p)
            got = (gb, [_reducer(g, order, p) for g in gb])
            self._gb[order.name] = got
        return got

    def groebner(self, order=DRL) -> list[dict]:
        return self._groebner_entry(order)[0]

    def groebner_polys(self, order=DRL) -> list[Polynomial]:
        return [Polynomial(self.ring, dict(g)) for g in self.groebner(order)]

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
        degrevlex-descending.  These represent a basis of (R/I)_d."""
        return self._standard(d)[0]

    def standard_index(self, d: int) -> dict[Mono, int]:
        return self._standard(d)[1]

    def _standard(self, d: int) -> tuple[list[Mono], dict[Mono, int]]:
        got = self._std.get(d)
        if got is None:
            reducers = self._groebner_entry(DRL)[1]
            monos = [
                m
                for m in self.ring.monomials_of_degree(d)
                if _divisor(m, _divmask(m), reducers) is None
            ]
            got = (monos, {m: i for i, m in enumerate(monos)})
            self._std[d] = got
        return got

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
        coefficients at the nonstandard monomials (see graded_coordinates).
        """
        out = []
        for m in self.nonstandard_monomials(d):
            nf = self.normal_form(self.ring.monomial(m))
            out.append(self.ring.monomial(m) - nf)
        return out

    def graded_coordinates(self, f: Polynomial, d: int) -> list[int]:
        """Coordinates of f in the graded_basis(d) layout.  f must lie in
        I_d (checked)."""
        if f and (not f.is_homogeneous() or f.degree() != d):
            raise InputError(f"not homogeneous of degree {d}: {f!r}")
        if self.normal_form(f).terms:
            raise InputError("polynomial is not in the ideal")
        nonstd = self.nonstandard_monomials(d)
        return [f.terms.get(m, 0) for m in nonstd]

    def nf_times_var(self, mono: Mono, var: int) -> dict:
        """Cached normal form of x_var * mono (mono given as an exponent
        tuple).  Hot path for Koszul matrix assembly."""
        key = (mono, var)
        got = self._nf_cache.get(key)
        if got is None:
            e = list(mono)
            e[var] += 1
            m2 = tuple(e)
            if _divisor(m2, _divmask(m2), self._groebner_entry(DRL)[1]) is None:
                got = {m2: 1}
            else:
                got = self.normal_form(self.ring.monomial(m2)).terms
            self._nf_cache[key] = got
        return got

    # -- Hilbert data --------------------------------------------------------

    def hilbert_series_numerator(self) -> list[int]:
        """Numerator of the Hilbert series of R/I over (1-t)^nvars (exact,
        from the lead-term ideal)."""
        num = _hilbert_numerator(_minimalize(self.lead_monomials()), {})
        if not num:
            return [0]
        top = max(num)
        return [num.get(k, 0) for k in range(top + 1)]

    def hilbert_data(self) -> HilbertData:
        """Dimension, degree and Hilbert polynomial of Proj(R/I).

        Computed exactly from the Hilbert series, then cross-checked by
        Newton interpolation on enumerated Hilbert function values beyond
        the numerator degree (finite differences must stabilize; any
        disagreement raises ConsistencyError)."""
        if self._hilbert is not None:
            return self._hilbert
        nv = self.ring.nvars
        num = self.hilbert_series_numerator()
        if all(c == 0 for c in num):
            data = HilbertData(-1, 0, (Fraction(0),))
            self._hilbert = data
            return data
        # cancel (1 - t)^s
        s = 0
        reduced = list(num)
        while sum(reduced) == 0:
            acc = 0
            quot = []
            for c in reduced[:-1]:
                acc += c
                quot.append(acc)
            reduced = quot if quot else [0]
            s += 1
        D = nv - s  # Krull dimension of R/I
        if D <= 0:
            data = HilbertData(-1, 0, (Fraction(0),))
            self._hilbert = data
            return data
        degree = sum(reduced)
        coeffs = _poly_from_binomials(reduced, D)
        data = HilbertData(D - 1, degree, coeffs)
        # independent route: interpolate enumerated h(d) beyond numerator deg
        d0 = len(num)  # strictly beyond the numerator degree
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

    # -- ideal operations ----------------------------------------------------

    def colon_var_saturation(self, i: int) -> "Ideal":
        """I : x_i^infinity for a homogeneous ideal, by Bayer-Stillman.

        Take the reduced GB in degrevlex with x_i last.  For homogeneous g
        in that order, x_i divides g exactly when it divides lead(g), so
        dividing each element by its largest power of x_i gives a GB of the
        colon.  When no element is divisible by x_i, I : x_i = I and `self`
        is returned."""
        n = self.ring.nvars
        for g in self.gens:
            if not g.is_homogeneous():
                raise InputError("colon_var_saturation needs a homogeneous ideal")
        gb = self.groebner(DRL if i == n - 1 else DegRevLex(last=i))
        powers = [min(m[i] for m in g) for g in gb]
        if not any(powers):
            return self
        stripped = [
            {m[:i] + (m[i] - k,) + m[i + 1 :]: c for m, c in g.items()} for g, k in zip(gb, powers)
        ]
        return Ideal(self.ring, [Polynomial(self.ring, g) for g in stripped])

    def intersect(self, other: "Ideal") -> "Ideal":
        """I cap J via the t-trick: eliminate t from t*I + (1-t)*J."""
        if self.ring != other.ring:
            raise InputError("intersection needs a common ring")
        ring = self.ring
        tname = "t_"
        while tname in ring.names:
            tname += "_"
        big = PolyRing(ring.field, (tname,) + ring.names)
        t, one = big.var(0), big.one()

        def lift(g: Polynomial) -> Polynomial:
            return Polynomial(big, {(0,) + m: c for m, c in g.terms.items()})

        gens = [t * lift(g) for g in self.gens] + [(one - t) * lift(g) for g in other.gens]
        return Ideal(big, gens, require_homogeneous=False).eliminate((0,))

    def saturate_irrelevant(self) -> "Ideal":
        """Saturation with respect to (x_0, ..., x_n): the largest ideal
        with the same graded pieces in all high degrees.

        Computed as the intersection of the single-variable saturations
        I : x_i^infty; if every one of them is I itself, I is already
        saturated and is returned as-is."""
        cols = [self.colon_var_saturation(i) for i in range(self.ring.nvars)]
        if all(c is self for c in cols):
            return self
        out = cols[0]
        for c in cols[1:]:
            out = out.intersect(c)
        # t-trick bases are homogeneous in the x-variables (t has weight 0),
        # so the kept elements are homogeneous
        return Ideal(self.ring, out.gens)

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
        returned in the smaller ring (names preserved)."""
        drop = tuple(sorted(set(drop)))
        keep = [i for i in range(self.ring.nvars) if i not in drop]
        gb = self.groebner(BlockOrder(drop, self.ring.nvars))
        ring2 = PolyRing(self.ring.field, tuple(self.ring.names[i] for i in keep))
        kept = []
        for g in gb:
            if all(all(m[i] == 0 for i in drop) for m in g):
                kept.append(
                    Polynomial(ring2, {tuple(m[i] for i in keep): c for m, c in g.items()})
                )
        return Ideal(ring2, kept, require_homogeneous=False)

    def change_coordinates(self, matrix) -> "Ideal":
        """Apply the substitution x_i -> sum_j matrix[i][j] x_j to every
        generator.  The matrix must be invertible mod p."""
        n = self.ring.nvars
        a = _square_rows(matrix, n, self.ring.char, "coordinate change")
        if matrix_rank(a, self.ring.char) != n:
            raise InputError("coordinate change matrix is singular")
        return Ideal(self.ring, [g.substitute_linear(a) for g in self.gens])

    def extend_ring(self, new_name: str) -> "Ideal":
        """The same generators viewed in a ring with one extra (last)
        variable: the ideal of the cone with the new coordinate as vertex
        direction."""
        ring2 = PolyRing(self.ring.field, self.ring.names + (new_name,))
        gens2 = [
            Polynomial(ring2, {m + (0,): c for m, c in g.terms.items()})
            for g in self.gens
        ]
        return Ideal(ring2, gens2)


# ---------------------------------------------------------------------------
# embedded schemes


class EmbeddedScheme:
    """A closed subscheme of P^n over F_p presented by a homogeneous ideal.

    Validation: generators homogeneous, the ideal is not the unit ideal,
    and the scheme is nondegenerate (no linear forms in the ideal).  The
    `labels` dict carries provenance (builder recipe, expected invariants)
    and is purely informational.
    """

    def __init__(self, ideal: Ideal, labels: dict | None = None):
        for g in ideal.gens:
            if not g.is_homogeneous():
                raise InputError(f"scheme ideal has inhomogeneous generator {g!r}")
        if ideal.is_unit_ideal():
            raise InputError("unit ideal does not define a subscheme of P^n")
        for lm in ideal.lead_monomials():
            if sum(lm) == 1:
                raise InputError(
                    "ideal contains a linear form; the scheme is degenerate "
                    f"(lead monomial {ideal.ring.format_mono(lm)})"
                )
        self.ideal = ideal
        self.ring = ideal.ring
        self.labels = dict(labels or {})
        self._parametrization = None  # set by builders for point sampling
        self._koszul_ranks: dict = {}

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
