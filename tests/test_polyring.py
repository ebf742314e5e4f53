import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzkit.errors import BudgetError, InputError
from syzkit.exactalg import matrix_inverse, rank
from syzkit.polyring import (
    DEGREE_LIMIT,
    DRL,
    BlockOrder,
    DegRevLex,
    EmbeddedScheme,
    Ideal,
    PolyRing,
    buchberger,
    format_ideal_text,
    parse_ideal_text,
)


@pytest.fixture
def r4():
    return PolyRing(32003, ("x0", "x1", "x2", "x3"))


def twisted_cubic(ring):
    return Ideal(
        ring,
        ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"],
    )


# -- orders and monomials ----------------------------------------------------


def test_degrevlex_classics(r4):
    assert DRL.key((0, 2, 0, 0)) > DRL.key((1, 0, 1, 0))  # x1^2 > x0*x2
    assert DRL.key((1, 0, 0, 0)) > DRL.key((0, 1, 0, 0))  # x0 > x1
    assert DRL.key((2, 0, 0, 0)) > DRL.key((0, 2, 0, 0))


def test_monomials_of_degree(r4):
    ms = r4.monomials_of_degree(2)
    assert len(ms) == 10
    assert ms[0] == (2, 0, 0, 0)
    keys = [DRL.key(m) for m in ms]
    assert keys == sorted(keys, reverse=True)
    assert r4.monomials_of_degree(-1) == []
    assert r4.monomials_of_degree(0) == [(0, 0, 0, 0)]


# -- parsing / printing ------------------------------------------------------


def test_parse_and_format(r4):
    f = r4.parse("x0^2*x1 + 3x2^3 - 2*x0*x1*x2")
    g = r4.parse("x0^2 x1 - 2 x0 x1 x2 + 3 x2^3")  # '*' optional
    assert f == g
    assert r4.parse(r4.format(f)) == f
    assert r4.format(r4.zero()) == "0"
    assert r4.format(r4.one()) == "1"
    assert r4.parse("-x0 + x0") == r4.zero()
    assert r4.parse("- 5") == r4.monomial((0, 0, 0, 0), -5)


def test_parse_errors(r4):
    for bad in ["", "x9", "x0 ^", "x0^x1", "+", "x0 $ x1"]:
        with pytest.raises(InputError):
            r4.parse(bad)


def test_ideal_text_round_trip(r4):
    text = """
# twisted cubic
field 32003
ring x0 x1 x2 x3
ideal
x0*x2 - x1^2
x0*x3 - x1*x2   # inline comment
x1*x3 - x2^2
"""
    ideal = parse_ideal_text(text)
    assert ideal.ring.names == ("x0", "x1", "x2", "x3")
    assert len(ideal.gens) == 3
    again = parse_ideal_text(format_ideal_text(ideal, comments=["round trip"]))
    assert again.same_ideal(ideal)


def test_ideal_text_errors():
    with pytest.raises(InputError):
        parse_ideal_text("field 32003\nideal\nx0")
    with pytest.raises(InputError):
        parse_ideal_text("field notaprime\nring x0\nideal")
    with pytest.raises(InputError):
        parse_ideal_text("field 32003\nring x0 x1\nnot_ideal\nx0")


# -- arithmetic ---------------------------------------------------------------


def test_poly_arithmetic(r4):
    x0, x1 = r4.var(0), r4.var(1)
    assert (x0 + x1) * (x0 + x1) == x0 * x0 + 2 * (x0 * x1) + x1 * x1
    assert (x0 + x1) ** 2 == (x0 + x1) * (x0 + x1)
    f = r4.parse("x0^2 + x1*x2")
    assert (f - f) == r4.zero()
    assert f.degree() == 2 and f.is_homogeneous()
    assert not r4.parse("x0^2 + x1").is_homogeneous()
    assert f.evaluate((1, 2, 3, 4)) == (1 + 6) % 32003


def test_substitute_linear_identity_and_composition(r4):
    f = r4.parse("x0*x2 - x1^2")
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert f.substitute_linear(eye) == f
    import numpy as np

    rng = np.random.default_rng(5)
    while True:
        a = rng.integers(0, 32003, size=(4, 4))
        try:
            ainv = matrix_inverse(a, 32003)
            break
        except ValueError:
            continue
    g = f.substitute_linear(a).substitute_linear(ainv)
    assert g == f


# -- Groebner bases ------------------------------------------------------------


def test_twisted_cubic_groebner(r4):
    ideal = twisted_cubic(r4)
    leads = set(ideal.lead_monomials())
    assert leads == {(0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0)}
    assert not ideal.is_unit_ideal()
    # generators already form the reduced GB here
    assert len(ideal.groebner()) == 3


def _random_gens(ring, rng, degrees, terms):
    """Random forms of the given degrees, each with up to `terms` terms."""
    p = ring.char
    gens = []
    for d in degrees:
        monos = ring.monomials_of_degree(d)
        picks = rng.sample(monos, min(terms, len(monos)))
        gens.append(ring.from_terms({m: rng.randrange(1, p) for m in picks}))
    return gens


def test_groebner_matches_sympy(r4):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0 x1 x2 x3")
    rng = random.Random(7)
    drawn = [
        [r4.format(g) for g in _random_gens(r4, rng, degrees, 4)]
        for degrees in [(2, 2, 2), (2, 3), (2, 2, 3)]
    ]
    for gens in [
        ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"],
        ["x0^2 + x1*x3 + 3*x2^2", "x0*x1 + 2*x2*x3"],
        ["x0^3 - x1*x2*x3", "x1^2 - x0*x2"],
        *drawn,
    ]:
        ideal = Ideal(r4, gens)
        mine = {r4.format(g) for g in ideal.groebner_polys()}
        ref = sympy.groebner(
            [sympy.sympify(s.replace("^", "**")) for s in gens],
            *xs,
            order="grevlex",
            modulus=32003,
            symmetric=False,
        )
        theirs = set()
        for e in ref.exprs:
            poly = sympy.Poly(e, *xs, modulus=32003, symmetric=False)
            terms = {tuple(mon): int(c) % 32003 for mon, c in poly.terms()}
            theirs.add(r4.format(r4.from_terms(terms)))
        assert mine == theirs


def test_normal_form_and_contains(r4):
    ideal = twisted_cubic(r4)
    f = r4.parse("x0*x2 - x1^2")
    assert ideal.contains(f)
    assert ideal.contains(r4.parse("x1") * f)
    g = r4.parse("x0*x3")
    nf = ideal.normal_form(g)
    assert nf == ideal.normal_form(nf)  # idempotent
    assert not ideal.contains(g)


# -- graded pieces -------------------------------------------------------------


def test_graded_pieces_twisted_cubic(r4):
    ideal = twisted_cubic(r4)
    assert ideal.hilbert_function(0) == 1
    assert ideal.hilbert_function(1) == 4
    assert ideal.hilbert_function(2) == 7
    assert ideal.hilbert_function(3) == 10
    basis2 = ideal.graded_basis(2)
    assert len(basis2) == 3
    for g in basis2:
        assert ideal.contains(g) and g.degree() == 2
    coords = ideal.graded_coordinates(r4.parse("x0*x2 - x1^2"), 2)
    assert coords == [32002, 0, 0]  # nonstandard monomials are x1^2, x1*x2, x2^2
    with pytest.raises(InputError):
        ideal.graded_coordinates(r4.parse("x0*x3"), 2)


def test_standard_plus_nonstandard_is_everything(r4):
    ideal = twisted_cubic(r4)
    for d in range(4):
        std = ideal.standard_monomials(d)
        non = ideal.nonstandard_monomials(d)
        assert len(std) + len(non) == len(r4.monomials_of_degree(d))


def test_standard_index_matches_standard_monomials(r4):
    # either call may come first, and each fills the same cache entry
    ideal = twisted_cubic(r4)
    index = ideal.standard_index(3)
    assert index == {m: i for i, m in enumerate(ideal.standard_monomials(3))}
    assert ideal.standard_index(3) is index


# -- Hilbert data ---------------------------------------------------------------


def test_hilbert_twisted_cubic(r4):
    hd = twisted_cubic(r4).hilbert_data()
    assert hd.dimension == 1
    assert hd.degree == 3
    assert hd.coeffs == (Fraction(1), Fraction(3))  # HP(d) = 3d + 1
    assert hd(5) == 16


def test_hilbert_full_space_and_empty():
    ring = PolyRing(32003, ("x0", "x1", "x2", "x3"))
    free = Ideal(ring, []).hilbert_data()
    assert (free.dimension, free.degree) == (3, 1)
    assert free(3) == 20  # C(6,3)
    r2 = PolyRing(32003, ("x0", "x1"))
    empty = Ideal(r2, ["x0", "x1"]).hilbert_data()
    assert (empty.dimension, empty.degree) == (-1, 0)
    point = Ideal(r2, ["x0"]).hilbert_data()
    assert (point.dimension, point.degree) == (0, 1)
    assert point(7) == 1


def test_hilbert_two_points():
    r2 = PolyRing(32003, ("x0", "x1"))
    two = Ideal(r2, ["x0*x1"]).hilbert_data()
    assert (two.dimension, two.degree) == (0, 2)


# -- elimination / saturation ----------------------------------------------------


def test_eliminate_conic_parametrization():
    ring = PolyRing(32003, ("t0", "t1", "y0", "y1", "y2"))
    graph = Ideal(
        ring,
        [
            ring.parse("y0 - t0^2"),
            ring.parse("y1 - t0*t1"),
            ring.parse("y2 - t1^2"),
        ],
        require_homogeneous=False,
    )
    conic = graph.eliminate((0, 1))
    target = Ideal(conic.ring, ["y1^2 - y0*y2"])
    assert conic.same_ideal(target)


def test_intersection():
    r2 = PolyRing(32003, ("x0", "x1"))
    left = Ideal(r2, ["x0"])
    right = Ideal(r2, ["x1"])
    both = left.intersect(right)
    assert both.same_ideal(Ideal(r2, ["x0*x1"]))


def test_colon_var_saturation():
    r2 = PolyRing(32003, ("x0", "x1"))
    ideal = Ideal(r2, ["x0^2", "x0*x1"])
    # x0^2 in I makes 1 a member of I : x0^infty
    assert ideal.colon_var_saturation(0).same_ideal(Ideal(r2, ["1"]))
    assert ideal.colon_var_saturation(1).same_ideal(Ideal(r2, ["x0"]))


def test_saturate_irrelevant():
    r2 = PolyRing(32003, ("x0", "x1"))
    ideal = Ideal(r2, ["x0^2", "x0*x1"])
    sat = ideal.saturate_irrelevant()
    assert sat.same_ideal(Ideal(r2, ["x0"]))
    # (x0*x1) is already saturated, but the one-variable colons differ from it:
    # the pairwise intersection path must reproduce it exactly
    prod = Ideal(r2, ["x0*x1"])
    assert prod.saturate_irrelevant().same_ideal(prod)
    # a genuinely saturated ideal takes the fast path and returns itself
    cubic = twisted_cubic(PolyRing(32003, ("x0", "x1", "x2", "x3")))
    assert cubic.saturate_irrelevant() is cubic


def test_equal_as_schemes():
    r2 = PolyRing(32003, ("x0", "x1"))
    assert Ideal(r2, ["x0^2", "x0*x1"]).equal_as_schemes(Ideal(r2, ["x0"]))
    assert not Ideal(r2, ["x0"]).equal_as_schemes(Ideal(r2, ["x1"]))


# -- coordinate changes ------------------------------------------------------------


def test_change_coordinates_round_trip(r4):
    import numpy as np

    ideal = twisted_cubic(r4)
    rng = np.random.default_rng(12)
    a = rng.integers(1, 32003, size=(4, 4))
    a = (a + np.eye(4, dtype=np.int64)) % 32003
    ainv = matrix_inverse(a, 32003)
    back = ideal.change_coordinates(a).change_coordinates(ainv)
    assert back.same_ideal(ideal)
    with pytest.raises(InputError):
        ideal.change_coordinates(np.zeros((4, 4), dtype=np.int64))


def test_extend_ring(r4):
    ideal = twisted_cubic(r4)
    cone = ideal.extend_ring("x4")
    assert cone.ring.names == ("x0", "x1", "x2", "x3", "x4")
    assert cone.hilbert_data().dimension == 2  # cone over a curve is a surface
    assert cone.hilbert_data().degree == 3


# -- embedded schemes ----------------------------------------------------------------


def test_embedded_scheme_validation(r4):
    with pytest.raises(InputError):
        EmbeddedScheme(Ideal(r4, ["x0 - x1"]))  # degenerate: linear form
    with pytest.raises(InputError):
        Ideal(r4, ["x0^2 + x0"])  # inhomogeneous generator
    with pytest.raises(InputError):
        EmbeddedScheme(Ideal(r4, ["3"]))  # unit ideal
    # mixed-degree generators where the linear form hides behind a quadric
    with pytest.raises(InputError):
        EmbeddedScheme(Ideal(r4, ["x1^2", "x0 - x3"]))


def test_embedded_scheme_twisted_cubic(r4):
    scheme = EmbeddedScheme(twisted_cubic(r4), labels={"kind": "rnc3"})
    assert scheme.ambient_dim == 3
    assert scheme.char == 32003
    assert len(scheme.quadrics()) == 3
    p = 32003
    for t in [0, 1, 2, 5, 12345]:
        pt = (pow(t, 3, p), pow(t, 2, p), t % p, 1)
        assert scheme.contains(pt)
    assert scheme.contains((1, 0, 0, 0))  # t = infinity
    assert not scheme.contains((1, 1, 1, 2))
    with pytest.raises(InputError):
        scheme.contains((0, 0, 0, 0))


# -- property tests -------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nf_properties_random_quadrics(seed):
    import numpy as np

    ring = PolyRing(101, ("x0", "x1", "x2"))
    rng = np.random.default_rng(seed)
    monos = ring.monomials_of_degree(2)
    gens = []
    for _ in range(2):
        terms = {m: int(rng.integers(0, 101)) for m in monos}
        g = ring.from_terms(terms)
        if g:
            gens.append(g)
    ideal = Ideal(ring, gens)
    if ideal.is_unit_ideal():
        return
    f = ring.from_terms({m: int(rng.integers(0, 101)) for m in monos})
    nf = ideal.normal_form(f)
    assert ideal.normal_form(nf) == nf
    assert ideal.contains(f - nf)
    for g in gens:
        assert ideal.contains(g * ring.var(rng.integers(0, 3)))


# The reference route below uses the tuple form of each order and plain
# exponent comparison, independent of the packed integer keys.


def _tuple_drl(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def _tuple_order(first, n, last=None):
    if first is None:
        if last is None:
            return _tuple_drl
        return lambda e: _tuple_drl(e[:last] + e[last + 1 :] + (e[last],))
    rest = [i for i in range(n) if i not in first]
    return lambda e: (_tuple_drl([e[i] for i in first]), _tuple_drl([e[i] for i in rest]))


def _order(first, n, last=None):
    """The packed order that _tuple_order(first, n, last) describes."""
    if first is None:
        return DRL if last is None else DegRevLex(last=last)
    return BlockOrder(first, n)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _naive_normal_form(h, basis, key, p):
    """Reduce h term by term, largest term first, by the lead terms of
    `basis` (monic dicts)."""
    leads = [(max(g, key=key), g) for g in basis]
    work = dict(h)
    rem = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        hit = next(((lm, g) for lm, g in leads if _divides(lm, m)), None)
        if hit is None:
            rem[m] = c
            continue
        lm, g = hit
        q = tuple(a - b for a, b in zip(m, lm))
        for mg, cg in g.items():
            mm = tuple(a + b for a, b in zip(mg, q))
            if mm == m:
                continue
            v = (work.get(mm, 0) - c * cg) % p
            if v:
                work[mm] = v
            else:
                work.pop(mm, None)
    return rem


def _macaulay_rows(ring, gens, d):
    """Rows m*g, over the degree-d monomials, for the generators of degree <= d."""
    cols = {m: i for i, m in enumerate(ring.monomials_of_degree(d))}
    rows = []
    for g in gens:
        for m in ring.monomials_of_degree(d - g.degree()):
            row = [0] * len(cols)
            for mg, c in g.terms.items():
                row[cols[tuple(a + b for a, b in zip(m, mg))]] = c
            rows.append(row)
    return rows, len(cols)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 5),
    st.sampled_from([2, 3, 101, 32003, 2**31 - 1]),
    st.sampled_from(["drl", "first", "last", "moved"]),
    st.integers(0, 2**32 - 1),
)
def test_groebner_basis_by_an_independent_route(nvars, p, which, seed):
    rng = random.Random(seed)
    ring = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
    degrees = [rng.choice((2, 3)) for _ in range(rng.randint(2, 4))]
    gens = [g for g in _random_gens(ring, rng, degrees, rng.randint(2, 6)) if g]
    first = {"drl": None, "first": (0,), "last": (nvars - 1,), "moved": None}[which]
    last = rng.randrange(nvars) if which == "moved" else None
    order = _order(first, nvars, last)
    key = _tuple_order(first, nvars, last)
    gb = buchberger([g.terms for g in gens], order, p)

    # reduced: monic, sorted by lead, and no term of any element divisible
    # by the lead of another
    leads = [max(g, key=key) for g in gb]
    assert leads == sorted(leads, key=key)
    for g, lm in zip(gb, leads):
        assert g[lm] == 1 and all(0 < c < p for c in g.values())
    for i, g in enumerate(gb):
        for j, lm in enumerate(leads):
            if i != j:
                assert not any(_divides(lm, m) for m in g)
    # the generators reduce to zero
    for g in gens:
        assert _naive_normal_form(g.terms, gb, key, p) == {}
    # the lead terms give the Hilbert function of the ideal, and the basis
    # elements lie in the ideal, degree by degree
    for d in range(max(degrees) + 3):
        rows, ncols = _macaulay_rows(ring, gens, d)
        r = rank(rows, p) if rows else 0
        standard = [
            m for m in ring.monomials_of_degree(d) if not any(_divides(lm, m) for lm in leads)
        ]
        assert len(standard) == ncols - r
        for g in gb:
            if sum(max(g, key=key)) == d and all(sum(m) == d for m in g):
                row = [g.get(m, 0) for m in ring.monomials_of_degree(d)]
                assert (rank(rows + [row], p) if rows else 1) == r


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_order_keys_compare_as_tuples_and_add(nvars, seed):
    rng = random.Random(seed)

    def draw():
        # small exponents, or a total degree right below the limit
        e = [0] * nvars
        top = rng.choice((4, DEGREE_LIMIT - 1))
        for _ in range(rng.randint(0, 3)):
            e[rng.randrange(nvars)] += rng.randint(0, top - sum(e))
        return tuple(e)

    a, b = draw(), draw()
    c = tuple(rng.sample(a, nvars))  # the degree of a, so only the tie-break decides
    moved = rng.randrange(nvars)
    for first, last in ((None, None), ((0,), None), ((nvars - 1,), None), (None, moved)):
        order = _order(first, nvars, last)
        key = _tuple_order(first, nvars, last)
        for u, v in ((a, b), (a, c)):
            assert (order.key(u) < order.key(v)) == (key(u) < key(v))
            assert (order.key(u) == order.key(v)) == (u == v)
        ab = tuple(x + y for x, y in zip(a, b))
        if sum(ab) < DEGREE_LIMIT:
            assert order.key(ab) == order.key(a) + order.key(b)


def test_monomials_past_the_degree_limit_are_refused():
    # exponents at the edge of the packing still compare as the tuples do
    top = DEGREE_LIMIT - 1
    a, b = (0, top, 0), (top - 1, 0, 1)
    for first in (None, (0,), (2,)):
        order = DRL if first is None else BlockOrder(first, 3)
        key = _tuple_order(first, 3)
        assert (order.key(a) < order.key(b)) == (key(a) < key(b))
    ring = PolyRing(32003, ("t", "y"))
    for order in (DRL, BlockOrder((0,), 2)):
        order.key((DEGREE_LIMIT - 1, 0))  # the largest degree that packs
        with pytest.raises(BudgetError):
            order.key((DEGREE_LIMIT, 0))
        with pytest.raises(BudgetError):
            order.key((1, DEGREE_LIMIT - 1))
    with pytest.raises(BudgetError):
        Ideal(ring, [f"t^{DEGREE_LIMIT}", "y^2"]).groebner()
    # reducing t*y by t - y^(limit-1) would reach y^limit: refused, not wrapped
    big = Ideal(ring, [f"t - y^{DEGREE_LIMIT - 1}", "t*y"], require_homogeneous=False)
    with pytest.raises(BudgetError):
        big.eliminate((0,))


def _colon_by_permuted_ring(ideal, i):
    """I : x_i^infinity by moving x_i to the last place of a new ring,
    stripping x_i from the degrevlex GB there, and moving the result back."""
    ring, n = ideal.ring, ideal.ring.nvars
    perm = [j for j in range(n) if j != i] + [i]
    moved = PolyRing(ring.field, [ring.names[j] for j in perm])
    gb = Ideal(
        moved,
        [moved.from_terms({tuple(m[j] for j in perm): c for m, c in g.terms.items()})
         for g in ideal.gens],
    ).groebner()
    back = []
    for g in gb:
        k = min(m[-1] for m in g)
        terms = {}
        for m, c in g.items():
            e = [0] * n
            for pos, j in enumerate(perm):
                e[j] = m[pos]
            e[i] -= k
            terms[tuple(e)] = c
        back.append(ring.from_terms(terms))
    return Ideal(ring, back)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.sampled_from([2, 3, 32003]), st.integers(0, 2**32 - 1))
def test_colon_var_saturation_matches_the_permuted_ring(nvars, p, seed):
    rng = random.Random(seed)
    ring = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
    degrees = [rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 3))]
    # multiplying by variable powers leaves colons that differ from I
    gens = [
        g * ring.var(rng.randrange(nvars)) ** rng.randint(0, 2)
        for g in _random_gens(ring, rng, degrees, rng.randint(1, 4))
    ]
    ideal = Ideal(ring, gens)
    for i in range(nvars):
        colon = ideal.colon_var_saturation(i)
        reference = _colon_by_permuted_ring(ideal, i)
        assert colon.groebner() == reference.groebner()
        assert (colon is ideal) == reference.same_ideal(ideal)
