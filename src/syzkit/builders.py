"""Builders for the example schemes: scrolls, complete intersections,
nodal plane quintics and their adjoint images.

Every builder returns an EmbeddedScheme whose labels record the recipe and
whose parametrization (when one exists) supports deterministic point
sampling.  Expected invariants that have independent closed forms (scroll
Hilbert functions, the two-row-matrix linear strand values) are exposed as
plain functions so tests and the verification suites can compare against
them without re-deriving anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import BudgetError, ConsistencyError, InputError
from .exactalg import (
    DEFAULT_CHAR,
    SparseRows,
    complement_basis,
    kernel_basis,
    rank as matrix_rank,
)
from .koszul import DEFAULT_ENTRY_BUDGET
from .polyring import EmbeddedScheme, Ideal, PolyRing, Polynomial
from .syzgeo import ProjectivePoint

# The most generator terms a builder may write: two per 2x2 minor of a
# scroll, one per coefficient a complete intersection draws.  A recipe that
# asks for more ends in BudgetError before anything is made, whatever
# --entry-budget says.  Measured on a shared 2-core x86-64 host under a
# 3 GB address-space cap: at the bound, `syz betti "rnc 45"` (990 minors)
# builds and then fails the default Koszul budget in about 27 s at a peak
# of about 55 MB, and "ci 16 16" (1938 coefficients) runs in 1.6 s at
# 46 MB; "ci 90 90" passed 600 MB within 20 s, and "rnc 99999" was killed
# for memory.
GENERATOR_BUDGET = DEFAULT_ENTRY_BUDGET // 8000


def _check_generator_size(terms: int, what: str) -> None:
    """BudgetError when `terms`, the generator terms a builder would
    write, is over GENERATOR_BUDGET."""
    if terms > GENERATOR_BUDGET:
        raise BudgetError(
            f"{what} would write {terms} generator terms, over the builders' "
            f"bound of {GENERATOR_BUDGET}"
        )


def seeded_rng(seed):
    """numpy's default generator (PCG64) for `seed`: every random draw of
    the package comes from one of these.  numpy is imported here, on the
    first draw, so a run that draws nothing never loads it."""
    import numpy as np

    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# scrolls


def scroll_hilbert(e, m: int) -> int:
    """Closed form for the Hilbert function of the scroll of type e:
    h(m) = C(m+f-1, f-1) + d * C(m+f-1, f) with f blocks and degree
    d = sum(e).  Derived from counting monomial sections block by block."""
    f = len(e)
    d = sum(e)
    if m < 0:
        return 0
    return comb(m + f - 1, f - 1) + d * comb(m + f - 1, f)


def scroll(e, char: int = DEFAULT_CHAR) -> EmbeddedScheme:
    """The rational normal scroll of type e = (e_1 >= ... >= e_f >= 1): the
    2x2 minors of the two-row matrix whose block i has columns
    (x_i_j, x_i_{j+1}) for j < e_i, in P^(f - 1 + sum(e)).

    Coordinates are x{i}_{j} for block i, 0 <= j <= e_i (plain x0..xn for a
    single block).  The attached parametrization sends (u_1..u_f, s, t) to
    x_i_j = u_i * s^(e_i - j) * t^j.

    The minors' Groebner basis is computed with the series of
    `scroll_hilbert` as its Hilbert floor (see `polyring.buchberger`):
    the Eagon-Northcott complex resolves the ideal of maximal minors of a
    2 x d matrix of linear forms whenever it has the expected codimension
    d - 1, over any field, so the closed form is the exact Hilbert
    function in every characteristic.  The values in degrees 1 and 2 are
    still checked against the computed ones."""
    e = tuple(int(v) for v in e)
    if not e or any(v < 1 for v in e):
        raise InputError(f"scroll type must be a tuple of positive integers, got {e}")
    f = len(e)
    d = sum(e)
    _check_generator_size(2 * comb(d, 2), f"scroll {e}")
    if f == 1:
        names = tuple(f"x{j}" for j in range(e[0] + 1))
    else:
        names = tuple(f"x{i}_{j}" for i in range(f) for j in range(e[i] + 1))
    ring = PolyRing(char, names)
    offsets = []
    pos = 0
    for ei in e:
        offsets.append(pos)
        pos += ei + 1
    cols = [
        (offsets[i] + j, offsets[i] + j + 1)
        for i in range(f)
        for j in range(e[i])
    ]
    def mono(i: int, j: int):
        exps = [0] * ring.nvars
        exps[i] += 1
        exps[j] += 1
        return ring.monomial(tuple(exps))

    gens = []
    for a in range(len(cols)):
        for b in range(a + 1, len(cols)):
            top_a, bot_a = cols[a]
            top_b, bot_b = cols[b]
            gens.append(mono(top_a, bot_b) - mono(top_b, bot_a))
    # scroll_hilbert as a series, (1 + (d-1)t) / (1-t)^(f+1), written over
    # (1-t)^nvars with nvars = f + d
    floor = [1, d - 1] if d > 1 else [1]
    for _ in range(d - 1):
        floor = [a - b for a, b in zip(floor + [0], [0] + floor)]
    ideal = Ideal(ring, gens)
    ideal._floor = floor
    scheme = EmbeddedScheme(
        ideal,
        labels={"kind": "scroll", "type": e, "degree": d, "dim": f},
    )
    for m in (1, 2):
        got = scheme.hilbert_function(m)
        want = scroll_hilbert(e, m)
        if got != want:
            raise ConsistencyError(
                f"scroll {e}: hilbert_function({m}) = {got}, closed form {want}"
            )

    def parametrize(u, s, t):
        p = char
        if all(int(v) % p == 0 for v in u) or (int(s) % p == 0 and int(t) % p == 0):
            raise InputError("scroll parameters must not all vanish")
        out = []
        for i in range(f):
            for j in range(e[i] + 1):
                out.append(int(u[i]) * pow(int(s), e[i] - j, p) * pow(int(t), j, p) % p)
        return tuple(out)

    def sample(rng):
        while True:
            u = [int(v) for v in rng.integers(0, char, size=f)]
            s, t = (int(v) for v in rng.integers(0, char, size=2))
            if any(u) and (s or t):
                pt = parametrize(u, s, t)
                if any(pt):
                    return pt

    scheme._parametrization = {"map": parametrize, "sample": sample}
    return scheme


def rational_normal_curve(n: int, char: int = DEFAULT_CHAR) -> EmbeddedScheme:
    """The degree-n rational normal curve in P^n (the one-block scroll)."""
    if n < 2:
        raise InputError("rational_normal_curve needs degree n >= 2")
    scheme = scroll((n,), char)
    scheme.labels.update({"kind": "rnc", "degree": n})
    return scheme


def en_betti(f: int, p: int) -> int:
    """Linear-strand value b_{p,1} = p * C(f, p+1) of the length-(f-1)
    resolution attached to a 1-generic two-row matrix with f columns — the
    expected value for every variety of minimal degree f."""
    if f < 1 or p < 0:
        raise InputError("en_betti needs f >= 1, p >= 0")
    return p * comb(f, p + 1)


def expected_scroll_betti(e, pmax: int, qmax: int) -> dict:
    """The full expected Betti grid of a scroll up to (pmax, qmax): 1 at
    (0,0), the two-row-matrix values on the q = 1 row, zero elsewhere."""
    d = sum(e)
    table = {(0, 0): 1}
    for p in range(1, pmax + 1):
        table[(p, 1)] = en_betti(d, p)
    return {k: v for k, v in table.items() if v and k[0] <= pmax and k[1] <= qmax}


def scroll_types(max_degree: int = 5, max_dim: int = 3) -> list:
    """All scroll types with degree <= max_degree and dimension (number of
    parts) <= max_dim, in (degree, reverse-lex) order.  Defaults give 15
    types from (1,) up to the degree-5 threefolds in P^7."""
    types = []
    for d in range(1, max_degree + 1):
        found = []

        def parts(remaining, cap, prefix):
            if remaining == 0:
                found.append(tuple(prefix))
                return
            if len(prefix) == max_dim:
                return
            for v in range(min(cap, remaining), 0, -1):
                parts(remaining - v, v, prefix + [v])

        parts(d, d, [])
        types.extend(found)
    return types


def sample_points(scheme: EmbeddedScheme, count: int, seed: int) -> list:
    """Deterministic distinct points on a parametrized scheme."""
    par = getattr(scheme, "_parametrization", None)
    if not par:
        raise InputError("scheme has no attached parametrization to sample from")
    rng = seeded_rng(seed)
    out: list = []
    seen = set()
    guard = 0
    while len(out) < count:
        pt = ProjectivePoint.make(scheme.char, par["sample"](rng))
        if pt.coords not in seen:
            seen.add(pt.coords)
            if not scheme.contains(pt.coords):
                raise ConsistencyError(f"sampled point {pt.coords} is off the scheme")
            out.append(pt)
        guard += 1
        if guard > 100 * count + 100:
            raise InputError(
                f"sampling found only {len(out)} of {count} points over F_{scheme.char}"
            )
    return out


# ---------------------------------------------------------------------------
# complete intersections


def complete_intersection(degrees, char: int = DEFAULT_CHAR, seed: int = 0) -> EmbeddedScheme:
    """A random complete-intersection curve: len(degrees) forms in
    P^(len(degrees)+1), resampled until the dimension certifies a regular
    sequence.  Degrees >= 2 keep the scheme nondegenerate.

    Each draw's Groebner basis is computed with the series
    prod_i (1 - t^d_i) / (1-t)^n of a regular sequence as a floor of its
    Hilbert function (see `polyring.buchberger`).  The floor holds for any
    forms of these degrees, regular or not: dim (R/I)_d is dim R_d less
    the rank of a matrix in the coefficients, so it is upper
    semicontinuous and takes its least value on a dense open set of
    forms over the algebraic closure (where the dimension is the same as
    over F_p).  Regular sequences, those with V(I) of codimension
    len(degrees), form a nonempty open set too (pure powers of distinct
    variables lie in it), which meets that one; all of them have that
    series, so it is the least value."""
    degrees = tuple(int(d) for d in degrees)
    if not degrees:
        raise InputError("complete_intersection needs at least one degree")
    if any(d < 2 for d in degrees):
        raise InputError("complete_intersection needs every degree >= 2")
    nv = len(degrees) + 2
    _check_generator_size(
        sum(comb(d + nv - 1, nv - 1) for d in degrees), f"complete intersection {degrees}"
    )
    ring = PolyRing(char, tuple(f"x{i}" for i in range(nv)))
    rng = seeded_rng(seed)
    expected_degree = 1
    floor = [1]  # the numerator prod_i (1 - t^d_i)
    for d in degrees:
        expected_degree *= d
        floor = [a - b for a, b in zip(floor + [0] * d, [0] * d + floor)]
    for _ in range(24):
        gens = []
        for d in degrees:
            monos = ring.monomials_of_degree(d)
            coeffs = rng.integers(0, char, size=len(monos))
            gens.append(Polynomial(ring, {m: int(c) for m, c in zip(monos, coeffs) if c}))
        ideal = Ideal(ring, gens)
        ideal._floor = floor
        hd = ideal.hilbert_data()
        if hd.dimension == 1 and hd.degree == expected_degree:
            return EmbeddedScheme(
                ideal, labels={"kind": "ci", "degrees": degrees, "seed": seed}
            )
    raise ConsistencyError(
        f"could not draw a regular sequence of degrees {degrees} in 24 tries"
    )


def quadric_hull(scheme: EmbeddedScheme) -> EmbeddedScheme:
    """The scheme cut out by the degree-2 part of the ideal."""
    quads = scheme.ideal.graded_basis(2)
    if not quads:
        raise InputError("the ideal contains no quadrics; the hull is the ambient space")
    return EmbeddedScheme(
        Ideal(scheme.ring, quads),
        labels={**scheme.labels, "kind": "quadric-hull"},
    )


# ---------------------------------------------------------------------------
# nodal plane quintics and adjoint maps


def _partial(f: Polynomial, i: int) -> Polynomial:
    ring = f.ring
    out: dict = {}
    for m, c in f.terms.items():
        if m[i]:
            m2 = list(m)
            m2[i] -= 1
            key = tuple(m2)
            out[key] = (out.get(key, 0) + c * m[i]) % ring.char
    return Polynomial(ring, {m: c for m, c in out.items() if c})


def _is_square(a: int, p: int) -> bool:
    a %= p
    if a == 0:
        return False
    return pow(a, (p - 1) // 2, p) == 1


@dataclass
class PlaneModel:
    """A plane curve together with its prescribed nodes (all at coordinate
    points), validated to be exactly that nodal."""

    curve: Polynomial
    nodes: list

    @property
    def ring(self) -> PolyRing:
        return self.curve.ring

    @property
    def char(self) -> int:
        return self.curve.ring.char

    def geometric_genus(self) -> int:
        d = self.curve.degree()
        return comb(d - 1, 2) - len(self.nodes)


# per node at a coordinate point e_k: quintic monomials that must vanish for
# the point to be a double point (value and both local partials)
_QUINTIC_EXCLUSIONS = {
    2: {(0, 0, 5), (1, 0, 4), (0, 1, 4)},
    1: {(0, 5, 0), (1, 4, 0), (0, 4, 1)},
}


def _coordinate_index(point) -> int:
    """Index k with point = e_k; rejects non-coordinate points."""
    nonzero = [i for i, v in enumerate(point.coords) if v]
    if len(nonzero) != 1:
        raise InputError(
            f"node {point.coords} is not a coordinate point; plane models "
            "keep their nodes at coordinate points"
        )
    return nonzero[0]


def _node_quadratic_part(f: Polynomial, k: int):
    """Coefficients (a, b, c) of the local quadratic part a*u^2+b*u*v+c*v^2
    of the curve at the coordinate point e_k, in the chart x_k = 1."""
    d = f.degree()
    i, j = (t for t in range(3) if t != k)

    def coeff(ei: int, ej: int) -> int:
        m = [0, 0, 0]
        m[i], m[j], m[k] = ei, ej, d - ei - ej
        return f.terms.get(tuple(m), 0)

    return coeff(2, 0), coeff(1, 1), coeff(0, 2)


def validate_plane_model(model: PlaneModel) -> None:
    """Raise unless every prescribed node is an honest split node and the
    curve has no other singular points.

    The singular subscheme (common zeros of the three partials) must be
    zero-dimensional of degree exactly the number of nodes: an ordinary
    node contributes exactly 1, so any extra or worse singularity — and any
    reducible curve, whose component intersections are extra singular
    points — pushes the degree up and is rejected."""
    f = model.curve
    ring = f.ring
    p = ring.char
    if f.degree() % p == 0:
        raise InputError("curve degree divisible by the characteristic")
    partials = [_partial(f, i) for i in range(3)]
    for node in model.nodes:
        k = _coordinate_index(node)
        if f.evaluate(node.coords) != 0:
            raise InputError(f"node {node.coords} is not on the curve")
        if any(g.evaluate(node.coords) != 0 for g in partials):
            raise InputError(f"point {node.coords} is not singular")
        qa, qb, qc = _node_quadratic_part(f, k)
        disc = (qb * qb - 4 * qa * qc) % p
        if disc == 0:
            raise InputError(f"singular point {node.coords} is not a node")
        if not _is_square(disc, p):
            raise InputError(f"node {node.coords} is not split over the base field")
    sing = Ideal(ring, partials)
    hd = sing.hilbert_data()
    expected_dim = 0 if model.nodes else -1
    if hd.dimension != expected_dim or hd.degree != len(model.nodes):
        raise InputError(
            "curve is not exactly nodal at the prescribed points: singular "
            f"scheme has dimension {hd.dimension}, degree {hd.degree}"
        )


def nodal_quintic(node_count: int, char: int = DEFAULT_CHAR, seed: int = 0) -> PlaneModel:
    """A random plane quintic with exactly node_count split nodes at the
    coordinate points [0:0:1] (and [0:1:0] for the second node)."""
    if node_count not in (1, 2):
        raise InputError("nodal_quintic supports 1 or 2 nodes")
    ring = PolyRing(char, ("x0", "x1", "x2"))
    if 5 % ring.char == 0:
        raise InputError("a plane quintic needs a characteristic other than 5")
    node_indices = [2, 1][:node_count]
    nodes = [
        ProjectivePoint.make(char, tuple(1 if i == k else 0 for i in range(3)))
        for k in node_indices
    ]
    excluded = set()
    for k in node_indices:
        excluded |= _QUINTIC_EXCLUSIONS[k]
    monos = [m for m in ring.monomials_of_degree(5) if m not in excluded]
    rng = seeded_rng(seed)
    for _ in range(64):
        coeffs = rng.integers(0, char, size=len(monos))
        f = Polynomial(ring, {m: int(c) for m, c in zip(monos, coeffs) if c})
        model = PlaneModel(curve=f, nodes=nodes)
        try:
            validate_plane_model(model)
        except InputError:
            continue
        return model
    raise ConsistencyError(
        f"could not draw a {node_count}-nodal quintic in 64 tries (seed {seed})"
    )


def adjoint_system(model: PlaneModel, degree: int, through=None) -> list:
    """The degree-`degree` forms through the selected nodes of the model
    (all nodes when `through` is None, else the listed node indices), as
    monomials: each node sits at a coordinate point e_k, so the vanishing
    condition removes exactly the monomial x_k^degree."""
    if degree < 1:
        raise InputError("adjoint system degree must be positive")
    ring = model.ring
    nodes = model.nodes if through is None else [model.nodes[i] for i in through]
    banned = {
        tuple(degree if i == _coordinate_index(node) else 0 for i in range(3))
        for node in nodes
    }
    return [ring.monomial(m) for m in ring.monomials_of_degree(degree) if m not in banned]


# ---------------------------------------------------------------------------
# implicitization of plane-model maps


def _substitution_matrix(forms, modulus: Ideal, d: int):
    """Matrix of (degree-d monomials in the target) -> (plane forms of
    degree (deg q_i)*d modulo the plane curve), columns in the canonical
    monomial order, rows on the standard monomials of the quotient."""
    tring = PolyRing(forms[0].ring.char, tuple(f"y{i}" for i in range(len(forms))))
    cols = tring.monomials_of_degree(d)
    deg = forms[0].degree() * d
    index = modulus.standard_index(deg)
    rows = [{} for _ in index]
    for ci, m in enumerate(cols):
        prod = forms[0].ring.one()
        for i, e in enumerate(m):
            for _ in range(e):
                prod = prod * forms[i]
        for mono, c in modulus.normal_form(prod).terms.items():
            rows[index[mono]][ci] = c
    return tring, cols, SparseRows(rows, len(cols))


def implicitize_kernel(model: PlaneModel, forms, max_degree: int = 3) -> Ideal:
    """Ideal of the image of the plane curve under a map by forms of one
    common degree, by per-degree kernels of the substitution map (exact in
    each degree).

    Generators are collected through max_degree; the cutoff is validated by
    comparing the Hilbert function of the generated ideal against the rank
    of the substitution matrix one degree further (they agree exactly when
    no new generators live there)."""
    if max_degree < 2:
        raise InputError(f"implicitization cutoff must be at least 2, got {max_degree}")
    if len({f.degree() for f in forms}) != 1:
        raise InputError("implicitization expects forms of one common degree")
    char = model.char
    modulus = Ideal(model.ring, [model.curve])
    tring = None
    gens = []
    if matrix_rank(_substitution_matrix(forms, modulus, 1)[2], char) != len(forms):
        raise InputError("the mapping forms are linearly dependent on the curve")
    prev_piece: list = []  # full degree-(d-1) piece of the ideal, as polynomials
    for d in range(2, max_degree + 1):
        tring, cols, mat = _substitution_matrix(forms, modulus, d)
        ker = kernel_basis(mat, char)
        col_index = {m: i for i, m in enumerate(cols)}
        # minimal new generators: the kernel modulo products of the
        # previous degree piece with the variables
        old_rows = []
        for g in prev_piece:
            for i in range(tring.nvars):
                prod = g * tring.var(i)
                old_rows.append({col_index[m]: c for m, c in prod.terms.items()})
        if ker.rows and old_rows:
            new_rows = complement_basis(SparseRows(old_rows, len(cols)), ker, char).rows
        else:
            new_rows = ker.rows
        for row in new_rows:
            gens.append(Polynomial(tring, {cols[i]: c for i, c in sorted(row.items())}))
        prev_piece = [
            Polynomial(tring, {cols[i]: c for i, c in sorted(row.items())}) for row in ker.rows
        ]
    ideal = Ideal(tring, gens)
    # the quotient by the full image ideal is the image algebra, whose
    # degree-d piece is exactly the column span of the substitution map
    _, _, mat_next = _substitution_matrix(forms, modulus, max_degree + 1)
    image_dim = matrix_rank(mat_next, char)
    got = ideal.hilbert_function(max_degree + 1)
    if got != image_dim:
        raise ConsistencyError(
            f"implicitization cutoff {max_degree} missed generators: the ideal "
            f"has quotient dimension {got} in degree {max_degree + 1}, the image "
            f"ring has {image_dim}"
        )
    return ideal


def implicitize_eliminate(model: PlaneModel, forms) -> Ideal:
    """Certifying route: the homogeneous graph ideal (curve, y_i*w - q_i)
    saturated by the weighting variable w, then restricted to the target
    coordinates.  Every junk component lies in {w = 0}, so the saturation
    followed by elimination yields exactly the homogeneous ideal of the
    image.  (The w-graph trick keeps the ideal homogeneous only for maps
    by quadrics, which covers the whole adjoint corpus.)"""
    if any(f.degree() != 2 for f in forms):
        raise InputError("the elimination route is implemented for degree-2 forms")
    ring = model.ring
    char = ring.char
    n_forms = len(forms)
    names = ring.names + ("w",) + tuple(f"y{i}" for i in range(n_forms))
    big = PolyRing(char, names)
    nv = big.nvars

    def lift(f: Polynomial) -> Polynomial:
        return Polynomial(
            big, {m + (0,) * (nv - 3): c for m, c in f.terms.items()}
        )

    gens = [lift(model.curve)]
    for i, q in enumerate(forms):
        e = [0] * nv
        e[3] = 1  # w
        e[4 + i] = 1  # y_i
        gens.append(Polynomial(big, {tuple(e): 1}) - lift(q))
    ideal = Ideal(big, gens)
    saturated = ideal.colon_var_saturation(3)
    return saturated.eliminate((0, 1, 2, 3))


def model_image(
    model: PlaneModel, forms, max_degree: int = 3, labels: dict | None = None
) -> EmbeddedScheme:
    """The image scheme of the plane model under the form map, with a
    parametrization that pushes plane-curve points through the map."""
    ideal = implicitize_kernel(model, forms, max_degree)
    scheme = EmbeddedScheme(ideal, labels=labels or {"kind": "plane-model-image"})

    def push(pt):
        vals = tuple(f.evaluate(pt) for f in forms)
        if not any(vals):
            raise InputError(f"plane point {pt} is a base point of the map")
        return vals

    def sample(rng):
        pt = plane_curve_point(model, rng)
        return push(pt.coords)

    scheme._parametrization = {"map": push, "sample": sample}
    return scheme


# univariate polynomials over F_p: coefficient lists, constant term first,
# with no trailing zeros (the zero polynomial is [])


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _poly_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of a by the nonzero polynomial b."""
    rem = list(a)
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(b) - 1] * inv % p
        quot[i] = c
        if c:
            for j, bj in enumerate(b):
                rem[i + j] = (rem[i + j] - c * bj) % p
    return _trim(quot), _trim(rem[: len(b) - 1])


def _poly_mulmod(a: list, b: list, f: list, p: int) -> list:
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_divmod(_trim(prod), f, p)[1]


def _poly_powmod(a: list, e: int, f: list, p: int) -> list:
    out = _poly_divmod([1], f, p)[1]
    a = _poly_divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _poly_mulmod(out, a, f, p)
        a = _poly_mulmod(a, a, f, p)
        e >>= 1
    return out


def _poly_gcd(a: list, b: list, p: int) -> list:
    """Monic gcd (the zero polynomial only when both are zero)."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _split_roots(g: list, p: int) -> list[int]:
    """Roots of a monic g that is a product of distinct linear factors,
    by equal-degree splitting: gcd(g, (z + a)^((p-1)/2) - 1) for
    a = 0, 1, ... until a proper factor appears."""
    if len(g) <= 1:
        return []
    if len(g) == 2:
        return [-g[0] % p]
    if p == 2:  # g divides z^2 - z, so it is z(z + 1)
        return [0, 1]
    for a in range(p):
        w = _poly_powmod([a, 1], (p - 1) // 2, g, p) or [0]
        w[0] = (w[0] - 1) % p
        d = _poly_gcd(g, _trim(w), p)
        if 1 < len(d) < len(g):
            return _split_roots(d, p) + _split_roots(_poly_divmod(g, d, p)[0], p)
    raise ConsistencyError(f"equal-degree splitting failed on {g} mod {p}")


def _roots_mod_p(coeffs: list, p: int) -> list[int]:
    """The distinct roots in F_p of a nonzero polynomial, ascending: split
    gcd(f, z^p - z), the product of its distinct linear factors."""
    f = _trim([c % p for c in coeffs])
    zp = _poly_powmod([0, 1], p, f, p) + [0, 0]
    zp[1] = (zp[1] - 1) % p
    return sorted(_split_roots(_poly_gcd(f, _trim(zp), p), p))


def plane_curve_point(model: PlaneModel, rng) -> ProjectivePoint:
    """A point of the plane curve away from the nodes, found on a random
    pencil of lines x1 = t*x0 from the roots of the restricted equation.

    The roots come from gcd(f, z^p - z), so the cost does not grow with p.
    A line that lies on the curve (possible only for a reducible curve,
    which validation rejects) is skipped."""
    p = model.char
    f = model.curve
    node_set = {n.coords for n in model.nodes}
    for _ in range(64):
        t = int(rng.integers(0, p))
        # restrict to the line (1, t, z): a univariate polynomial in z
        coeffs = [0] * (f.degree() + 1)
        for m, c in f.terms.items():
            coeffs[m[2]] = (coeffs[m[2]] + c * pow(t, m[1], p)) % p
        if not any(coeffs):
            continue
        roots = _roots_mod_p(coeffs, p)
        # numpy shuffles a list with the same draws as an array
        rng.shuffle(roots)
        for z in roots:
            pt = ProjectivePoint.make(p, (1, t, z))
            if pt.coords not in node_set:
                return pt
    raise ConsistencyError("no smooth plane-curve point found in 64 pencils")
