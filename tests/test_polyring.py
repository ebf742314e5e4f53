import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzkit.errors import BudgetError, ConsistencyError, InputError
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


def _monomials_by_key(nvars, d):
    """Every degree-d monomial, sorted by the degrevlex key, largest first."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, key=DRL.key, reverse=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.lists(st.integers(0, 8), min_size=1, max_size=4))
def test_monomials_of_degree_match_the_key_sort(nvars, degrees):
    # degrees are asked in any order, on one ring, so later ones may be cached
    ring = PolyRing(32003, tuple(f"x{i}" for i in range(nvars)))
    for d in degrees:
        assert ring.monomials_of_degree(d) == _monomials_by_key(nvars, d)


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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.sampled_from([2, 3, 32003]),
    st.lists(st.integers(0, 6), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_standard_monomials_are_the_divisor_filter(nvars, p, degrees, seed):
    # grown degree by degree, they must equal the monomials of degree d that
    # no lead term divides, whatever order the degrees are asked in
    rng = random.Random(seed)
    ring = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
    gen_degrees = [rng.choice((1, 2, 3)) for _ in range(rng.randint(0, 3))]
    ideal = Ideal(ring, _random_gens(ring, rng, gen_degrees, rng.randint(1, 4)))
    leads = ideal.lead_monomials()
    for d in degrees + [5, 2]:
        want = [m for m in ring.monomials_of_degree(d) if not any(_divides(lm, m) for lm in leads)]
        assert ideal.standard_monomials(d) == want
        assert ideal.standard_index(d) == {m: i for i, m in enumerate(want)}


def test_hilbert_function_at_a_high_degree():
    # degrees below are filled by a loop, not by recursion
    ideal = Ideal(PolyRing(32003, ["x0", "x1"]), ["x0"])
    assert ideal.hilbert_function(3000) == 1


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
        return DRL if last is None else DegRevLex(last=last, nvars=n)
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


def _invertible(rng, n, p):
    while True:
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rank(a, p) == n:
            return a


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4),
    st.sampled_from([2, 3, 32003]),
    st.integers(0, 4),
    st.integers(0, 2**32 - 1),
)
def test_hilbert_driven_bases_equal_the_plain_ones(nvars, p, ngens, seed):
    # zero to four forms of mixed degrees; zero forms is the zero ideal
    rng = random.Random(seed)
    ring = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
    degrees = [rng.choice((1, 2, 2, 3)) for _ in range(ngens)]
    ideal = Ideal(ring, _random_gens(ring, rng, degrees, rng.randint(1, 6)))
    numerator = ideal.hilbert_series_numerator()  # from the DRL leads
    moved = ideal.change_coordinates(_invertible(rng, nvars, p))
    orders = [DRL, DegRevLex(last=rng.randrange(nvars), nvars=nvars), BlockOrder((nvars - 1,), nvars)]
    for source in (ideal, moved):
        gens = [g.terms for g in source.gens]
        for order in orders:
            plain = [list(g.items()) for g in buchberger(gens, order, p)]
            hinted = [list(g.items()) for g in buchberger(gens, order, p, numerator)]
            assert hinted == plain
            # the ideal passes the same target itself
            assert [list(g.items()) for g in source.groebner(order)] == plain
    assert moved.hilbert_series_numerator() == numerator
    assert Ideal(ring, moved.gens).hilbert_series_numerator() == numerator


def test_a_target_above_the_hilbert_function_is_refused(r4):
    # the twisted cubic has HF(3) = 10; this numerator asks for 13, more
    # than the leads of its quadrics leave standard in degree 3
    gens = [g.terms for g in twisted_cubic(r4).gens]
    with pytest.raises(ConsistencyError, match="degree 3"):
        buchberger(gens, BlockOrder((3,), 4), 32003, [1, 0, -2, 1])


def test_elimination_carries_its_drl_basis(r4, monkeypatch):
    import syzkit.polyring as polyring

    rng = random.Random(5)
    projection = twisted_cubic(r4).change_coordinates(_invertible(rng, 4, 32003)).eliminate((3,))
    r3 = PolyRing(32003, ("x0", "x1", "x2"))
    left, right = Ideal(r3, ["x0*x1", "x2^2"]), Ideal(r3, ["x1^2 - x0*x2", "x0*x2 + x2^2"])
    meet = left.intersect(right)
    for out in (projection, meet):
        carried = out._groebner_entry(DRL)
        fresh = Ideal(out.ring, out.gens, require_homogeneous=False)
        monkeypatch.setattr(polyring, "buchberger", None)  # the cache must answer
        assert out.groebner() is carried[0]
        monkeypatch.undo()
        computed = fresh._groebner_entry(DRL)
        assert [list(g.items()) for g in carried[0]] == [list(g.items()) for g in computed[0]]
        assert carried[1] == computed[1]
    assert left.contains_ideal(meet) and right.contains_ideal(meet)


def test_out_of_range_variable_indices_are_refused():
    ring = PolyRing(32003, ("x", "y", "z"))
    ideal = Ideal(ring, ["x*z - y^2"])
    for i in (-1, 3, 5):
        pattern = f"index {i} is out of range for a ring in 3 variables"
        with pytest.raises(InputError, match=pattern):
            ideal.eliminate((i,))
        with pytest.raises(InputError, match=pattern):
            ideal.eliminate((0, i))
        with pytest.raises(InputError, match=pattern):
            ideal.colon_var_saturation(i)
        with pytest.raises(InputError, match=pattern):
            DegRevLex(last=i, nvars=3)
        with pytest.raises(InputError, match=pattern):
            BlockOrder((i,), 3)
    assert ideal.colon_var_saturation(2) is ideal


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


# -- moved bases and the saturation shortcut ------------------------------------


@contextmanager
def _buchberger_orders():
    """The names of the orders `buchberger` is called with inside the block."""
    import syzkit.polyring as polyring

    orders = []
    real = polyring.buchberger

    def counting(gens, order, p, hilbert=None):
        orders.append(order.name)
        return real(gens, order, p, hilbert)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyring, "buchberger", counting)
        yield orders


def _basis_items(basis):
    return [list(g.items()) for g in basis]


def _upper_triangular(rng, n, p):
    """Each x_i goes into span(x_i, ..., x_n), with a nonzero, not
    necessarily unit, diagonal."""
    return [
        [rng.randrange(1, p) if j == i else rng.randrange(p) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.sampled_from([2, 3, 32003]), st.integers(0, 2**32 - 1))
def test_moved_drl_bases_are_derived_without_buchberger(nvars, p, seed):
    rng = random.Random(seed)
    ring = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
    degrees = [rng.choice((1, 2, 2, 3)) for _ in range(rng.randint(1, 4))]
    ideal = Ideal(ring, _random_gens(ring, rng, degrees, rng.randint(1, 5)))
    ideal.groebner()  # the source basis is cached
    a = _upper_triangular(rng, nvars, p)
    moved = ideal.change_coordinates(a)
    # the generators share one table of images; each must be its own image
    assert moved.gens == tuple(g.substitute_linear(a) for g in ideal.gens)
    with _buchberger_orders() as orders:
        derived = moved._groebner_entry(DRL)
    assert orders == []
    plain = buchberger([g.terms for g in moved.gens], DRL, p)
    assert _basis_items(derived[0]) == _basis_items(plain)
    assert derived[1] == plain.reducers
    assert moved.hilbert_series_numerator() == ideal.hilbert_series_numerator()
    # any other invertible matrix, with a nonzero diagonal or not, keeps
    # the Buchberger path
    b = _invertible(rng, nvars, p)
    triangular = all(b[i][i] and not any(b[i][:i]) for i in range(nvars))
    other = ideal.change_coordinates(b)
    with _buchberger_orders() as orders:
        got = other.groebner()
    assert orders == ([] if triangular else [DRL.name])
    assert _basis_items(got) == _basis_items(buchberger([g.terms for g in other.gens], DRL, p))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.sampled_from([2, 3, 32003]),
    st.sampled_from(["random", "moved", "eliminated"]),
    st.integers(0, 2**32 - 1),
)
def test_nf_times_var_equals_the_normal_form(nvars, p, kind, seed):
    """A product that is a lead of the reduced DRL basis is looked up, not
    reduced: its normal form must still be the one the heap reduction
    gives, term for term and in the same order, for every product of
    degree up to 3, on a random ideal, a moved one that derives its basis
    from the source, and an elimination that carries its basis over."""
    rng = random.Random(seed)
    extra = kind == "eliminated"
    ring = PolyRing(p, tuple(f"x{i}" for i in range(nvars + extra)))
    degrees = [rng.choice((2, 2, 3)) for _ in range(rng.randint(1, 4))]
    ideal = Ideal(ring, _random_gens(ring, rng, degrees, rng.randint(1, 5)))
    if kind == "moved":
        ideal.groebner()
        ideal = ideal.change_coordinates(_upper_triangular(rng, nvars, p))
    elif kind == "eliminated":
        ideal = ideal.change_coordinates(_invertible(rng, nvars + 1, p)).eliminate((nvars,))
    for d in range(3):
        for mono in ideal.ring.monomials_of_degree(d):
            for var in range(nvars):
                product = tuple(e + (i == var) for i, e in enumerate(mono))
                expected = ideal.normal_form(ideal.ring.monomial(product)).terms
                assert list(ideal.nf_times_var(mono, var).items()) == list(expected.items())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5),
    st.sampled_from([2, 3, 32003]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_move_point_matrix_derives_exactly_when_the_last_coordinate_is_nonzero(
    nvars, p, last_zero, seed
):
    from syzkit.syzgeo import ProjectivePoint, move_point_matrix

    rng = random.Random(seed)
    ring = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
    degrees = [rng.choice((2, 2, 3)) for _ in range(rng.randint(1, 3))]
    ideal = Ideal(ring, _random_gens(ring, rng, degrees, rng.randint(1, 5)))
    ideal.groebner()
    coords = [rng.randrange(p) for _ in range(nvars)]
    coords[-1] = 0 if last_zero else rng.randrange(1, p)
    if not any(coords):
        coords[rng.randrange(nvars - 1)] = 1
    moved = ideal.change_coordinates(move_point_matrix(ProjectivePoint.make(p, coords)))
    with _buchberger_orders() as orders:
        got = moved.groebner()
    assert orders == ([DRL.name] if last_zero else [])
    plain = buchberger([g.terms for g in moved.gens], DRL, p)
    assert _basis_items(got) == _basis_items(plain)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.sampled_from([2, 3, 32003]), st.integers(0, 2**32 - 1))
def test_substitute_linear_matches_a_sympy_expansion(nvars, p, seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    ring = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
    (f,) = _random_gens(ring, rng, [rng.randint(0, 4)], rng.randint(1, 8))
    # any matrix, singular ones included
    a = [[rng.randrange(p) for _ in range(nvars)] for _ in range(nvars)]
    xs = sympy.symbols(ring.names)
    forms = [sum(a[i][j] * xs[j] for j in range(nvars)) for i in range(nvars)]
    expr = sum(
        c * sympy.Mul(*(forms[i] ** e for i, e in enumerate(m))) for m, c in f.terms.items()
    )
    expanded = sympy.Poly(sympy.expand(expr), *xs)
    want = {m: int(c) % p for m, c in expanded.terms() if int(c) % p}
    assert f.substitute_linear(a).terms == want


def _saturation_by_every_colon(ideal):
    """The intersection of I : x_i^infinity over every variable, from a
    copy of the ideal with no cached bases."""
    fresh = Ideal(ideal.ring, ideal.gens)
    out = fresh.colon_var_saturation(0)
    for i in range(1, ideal.ring.nvars):
        out = out.intersect(fresh.colon_var_saturation(i))
    return out


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 5),
    st.sampled_from([2, 3, 32003]),
    st.sampled_from(["times-m", "cap-power-of-m", "saturated-cap-x_n"]),
    st.integers(0, 2**32 - 1),
)
def test_saturation_equals_the_intersection_over_every_variable(nvars, p, kind, seed):
    rng = random.Random(seed)
    ring = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
    degrees = [rng.choice((1, 2, 2)) for _ in range(rng.randint(1, 3))]
    base = Ideal(ring, _random_gens(ring, rng, degrees, rng.randint(1, 4)))
    xs = ring.gens()
    if kind == "times-m":
        ideal = Ideal(ring, [g * x for g in base.gens for x in xs])
    elif kind == "cap-power-of-m":
        power = Ideal(ring, [ring.monomial(m) for m in ring.monomials_of_degree(rng.randint(1, 3))])
        ideal = base.intersect(power).check_homogeneous()
    else:
        # saturated, as an intersection of saturated ideals, and x_n is a
        # zero divisor on it
        ideal = _saturation_by_every_colon(base).intersect(Ideal(ring, [xs[-1]]))
        ideal.check_homogeneous()
    reference = _saturation_by_every_colon(ideal)
    got = ideal.saturate_irrelevant()
    assert _basis_items(got.groebner()) == _basis_items(reference.groebner())
    if kind != "cap-power-of-m":
        assert ideal.colon_var_saturation(nvars - 1) is not ideal
    if kind == "times-m":
        assert got.same_ideal(_saturation_by_every_colon(base))
    if kind == "saturated-cap-x_n":
        assert got.same_ideal(ideal)


def test_projecting_rnc_4_derives_the_moved_drl_basis():
    from syzkit.builders import rational_normal_curve
    from syzkit.syzgeo import project_scheme

    curve = rational_normal_curve(4)  # validated: its DRL basis is cached
    with _buchberger_orders() as orders:
        ctx = project_scheme(curve, (1, 2, 3, 4, 5))
        moved = ctx.moved.ideal.groebner()
        assert ctx.moved.ideal.saturate_irrelevant() is ctx.moved.ideal
    # the moved DRL basis is derived, and nothing is eliminated until read
    assert orders == []
    with _buchberger_orders() as orders:
        assert ctx.projected.ring.nvars == 4
    assert orders == [BlockOrder((4,), 5).name]
    plain = buchberger([g.terms for g in ctx.moved.ideal.gens], DRL, curve.char)
    assert _basis_items(moved) == _basis_items(plain)


def test_saturating_a_saturated_ideal_reads_only_the_drl_basis(r4):
    cubic = twisted_cubic(r4)
    with _buchberger_orders() as orders:
        assert cubic.saturate_irrelevant() is cubic
    assert orders == [DRL.name]


# -- Hilbert windows and floors ---------------------------------------------


def _reduced_series(ideal):
    """(h, D) with HS(R/I) = h(t) / (1-t)^D and h(1) != 0, by dividing the
    numerator over (1-t)^nvars by 1 - t while t = 1 is a root."""
    h, D = list(ideal.hilbert_series_numerator()), ideal.ring.nvars
    while D and any(h) and sum(h) == 0:
        h = list(itertools.accumulate(h[:-1]))
        D -= 1
    return h, D


def _window_start(ideal):
    """r - D + 1, r = deg h: the first degree where HF = HP must hold."""
    h, D = _reduced_series(ideal)
    return len(h) - D


def _skew_linear_spaces(ring, rng):
    """Two disjoint linear spaces, x_0 = .. = x_{k-1} = 0 and x_k = .. = 0,
    moved by a random invertible matrix: not Cohen-Macaulay once both
    spaces are positive-dimensional or they differ in dimension."""
    n = ring.nvars
    k = rng.randint(1, n - 1)
    xs = ring.gens()
    ideal = Ideal(ring, [xs[i] * xs[j] for i in range(k) for j in range(k, n)])
    return ideal.change_coordinates(_invertible(rng, n, ring.char))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5),
    st.sampled_from([2, 3, 32003]),
    st.sampled_from(["random", "skew", "times-m"]),
    st.integers(0, 2**32 - 1),
)
def test_hilbert_polynomial_equals_the_function_from_the_window_start(nvars, p, kind, seed):
    rng = random.Random(seed)
    ring = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
    if kind == "skew":
        ideal = _skew_linear_spaces(ring, rng)
    else:
        degrees = [rng.choice((1, 2, 2, 3)) for _ in range(rng.randint(1, 4))]
        ideal = Ideal(ring, _random_gens(ring, rng, degrees, rng.randint(1, 5)))
        if kind == "times-m":
            ideal = Ideal(ring, [g * x for g in ideal.gens for x in ring.gens()])
    hd = ideal.hilbert_data()
    h, D = _reduced_series(ideal)
    if D == 0:
        assert (hd.dimension, hd.degree) == (-1, 0)
        return
    assert (hd.dimension, hd.degree) == (D - 1, sum(h))
    # from r - D + 1 through the end of the window the numerator's degree
    # gave: len(numerator) + D
    end = len(ideal.hilbert_series_numerator()) + D
    for d in range(max(0, _window_start(ideal)), end + 1):
        assert hd(d) == ideal.hilbert_function(d), d


def test_the_window_start_is_tight(r4):
    from syzkit.builders import complete_intersection

    skew = Ideal(r4, ["x0*x2", "x0*x3", "x1*x2", "x1*x3"])
    cases = [
        (complete_intersection((2, 3)).ideal, 2),  # HF(1) = 4, HP(1) = 3
        (complete_intersection((2, 2, 3)).ideal, 3),  # HF(2) = 13, HP(2) = 12
        (skew, 1),  # HF(0) = 1, HP(0) = 2
    ]
    for ideal, start in cases:
        hd = ideal.hilbert_data()
        assert _window_start(ideal) == start
        assert hd(start - 1) != ideal.hilbert_function(start - 1)
        assert hd(start) == ideal.hilbert_function(start)


def test_hilbert_data_grows_standard_monomials_through_the_window_only():
    from syzkit.builders import complete_intersection, scroll

    # scroll 3 3 2: h = 1 + 7t, D = 4, so d0 = 0 and the samples are 0..4;
    # ci 2 2 3: h = (1 + t)^2 (1 + t + t^2), D = 2, d0 = 3, samples 3..5
    for scheme, last in ((scroll((3, 3, 2)), 4), (complete_intersection((2, 2, 3)), 5)):
        fresh = Ideal(scheme.ring, scheme.ideal.gens)
        fresh.hilbert_data()
        assert len(fresh._std) == last + 1


def _ci_floor(degrees):
    """The numerator prod (1 - t^d) of a regular sequence's series."""
    out = [1]
    for d in degrees:
        out = [a - b for a, b in zip(out + [0] * d, [0] * d + out)]
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 5),
    st.sampled_from([2, 3, 32003]),
    st.sampled_from(["dense", "sparse", "shared-factor"]),
    st.integers(0, 2**32 - 1),
)
def test_a_complete_intersection_floor_gives_the_plain_basis(nvars, p, kind, seed):
    # dense forms are a regular sequence for most draws, sparse ones often
    # not, and forms with a common factor never (for two or more)
    rng = random.Random(seed)
    ring = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
    degrees = [rng.choice((2, 2, 3)) for _ in range(rng.randint(1, nvars - 1))]
    if kind == "shared-factor":
        common = _random_gens(ring, rng, [1], nvars)[0]
        gens = [common * g for g in _random_gens(ring, rng, [d - 1 for d in degrees], 4)]
    else:
        terms = 50 if kind == "dense" else rng.randint(1, 3)
        gens = _random_gens(ring, rng, degrees, terms)
    floor = _ci_floor(degrees)
    orders = [DRL, DegRevLex(last=rng.randrange(nvars), nvars=nvars), BlockOrder((0,), nvars)]
    for order in orders:
        plain = buchberger([g.terms for g in gens], order, p)
        assert _basis_items(buchberger([g.terms for g in gens], order, p, floor)) == _basis_items(plain)
    # an ideal reads its floor as a target only, never as its numerator
    ideal, fresh = Ideal(ring, gens), Ideal(ring, gens)
    ideal._floor = floor
    assert _basis_items(ideal.groebner()) == _basis_items(fresh.groebner())
    assert ideal.hilbert_series_numerator() == fresh.hilbert_series_numerator()
    assert ideal.hilbert_data() == fresh.hilbert_data()


def test_a_floor_above_the_hilbert_function_is_refused(r4):
    # the floor of a quadric and a cubic asks for HF(3) >= 20 - 4 - 1; two
    # general quadrics have leads x0^2 and x0*x1, which leave 13 standard
    # cubics when their pair comes up in degree 3
    rng = random.Random(3)
    gens = _random_gens(r4, rng, [2, 2], 10)
    assert Ideal(r4, gens).lead_monomials()[:2] == [(1, 1, 0, 0), (2, 0, 0, 0)]
    with pytest.raises(ConsistencyError, match="degree 3"):
        buchberger([g.terms for g in gens], DRL, 32003, _ci_floor([2, 3]))
    ideal = Ideal(r4, gens)
    ideal._floor = _ci_floor([2, 3])
    with pytest.raises(ConsistencyError, match="degree 3"):
        ideal.groebner()
