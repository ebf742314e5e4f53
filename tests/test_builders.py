"""Example builders: scrolls, complete intersections, nodal plane quintics
and their adjoint images.

Oracle values derived independently:

- Scroll Hilbert function.  Sections of O(m) on the scroll of type
  e = (e_1..e_f) are spanned by u^a s^i t^j with |a| = m, so
  h(m) = C(m+f-1, f-1) + d * C(m+f-1, f) where d = sum(e); checked by hand
  at S(1,1): h(2) = 9, at (3): h(m) = 3m + 1, at S(2,1): h(2) = 12.
- Two-row-matrix linear strand: b_{p,1} = p * C(d, p+1) for a degree-d
  scroll.  Frozen rows: d=3 -> (3, 2, 0); d=4 -> (6, 8, 3);
  d=5 -> (10, 20, 15, 4).
- Complete-intersection canonical curves.  Hilbert numerator plus Euler
  characteristic and the self-duality b_{p,q} = b_{c-p, (c+3)-q} of the
  (codimension-c Gorenstein) quotient pin the whole grid:
  degrees (2,3): {(0,0):1, (1,1):1, (1,2):1, (2,3):1};
  degrees (2,2,2): {(0,0):1, (1,1):3, (2,2):3, (3,3):1}.
- Plane quintic with one split node has geometric genus C(4,2) - 1 = 5 and
  the five conics through the node embed it in P^4 as a degree-8 curve
  whose quadrics are the minors of a two-row matrix (a degree-3 scroll
  carries it), so its linear strand is (3, 2, 0) and the full grid is
  {(0,0):1, (1,1):3, (2,1):2, (1,2):2, (2,2):3, (3,3):1}.
- Plane quintic with two split nodes has genus 4; the four conics through
  both nodes embed it as a degree-6 curve in P^3 with the (2,3) complete
  intersection grid.  The five conics through just the first node map it
  to a degree-8 curve D in P^4 with one surviving double point; the span
  of products of those conics misses exactly the three two-row minors, so
  I(D)_2 is 3-dimensional and the linear strand of D equals (3, 2, 0).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzkit import builders
from syzkit.builders import (
    GENERATOR_BUDGET,
    PlaneModel,
    _roots_mod_p,
    adjoint_system,
    complete_intersection,
    en_betti,
    expected_scroll_betti,
    implicitize_eliminate,
    implicitize_kernel,
    model_image,
    nodal_quintic,
    plane_curve_point,
    quadric_hull,
    rational_normal_curve,
    sample_points,
    scroll,
    scroll_hilbert,
    scroll_types,
    validate_plane_model,
)
from syzkit.errors import BudgetError, ConsistencyError, InputError
from syzkit.koszul import DEFAULT_ENTRY_BUDGET, betti_table, koszul_dim
from syzkit.polyring import Ideal, Polynomial, PolyRing
from syzkit.syzgeo import ProjectivePoint

CHAR = 32003


@pytest.fixture(scope="module")
def one_node():
    return nodal_quintic(1)


@pytest.fixture(scope="module")
def two_node():
    return nodal_quintic(2)


@pytest.fixture(scope="module")
def trigonal(one_node):
    return model_image(one_node, adjoint_system(one_node, 2))


@pytest.fixture(scope="module")
def nodal_d(two_node):
    return model_image(two_node, adjoint_system(two_node, 2, through=[0]))


# ---------------------------------------------------------------------------
# scrolls


def test_one_block_scroll_is_rational_normal_curve():
    got = scroll((3,))
    ring = PolyRing(CHAR, ("x0", "x1", "x2", "x3"))
    hand = Ideal(ring, ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"])
    assert got.ring.names == ring.names
    assert got.ideal.same_ideal(hand)
    assert rational_normal_curve(3).labels["kind"] == "rnc"


def test_scroll_hilbert_closed_form():
    for e in [(1,), (2,), (1, 1), (2, 1), (3, 2)]:
        s = scroll(e)
        for m in (1, 2, 3):
            assert s.hilbert_function(m) == scroll_hilbert(e, m)
    assert scroll_hilbert((1, 1), 2) == 9
    assert scroll_hilbert((3,), 4) == 13
    assert scroll_hilbert((2, 1), 2) == 12


def test_scroll_generator_counts():
    # one 2x2 minor per pair of matrix columns, d columns in total
    assert len(scroll((1, 1)).ideal.gens) == 1
    assert len(scroll((2, 1)).ideal.gens) == 3
    assert len(scroll((4,)).ideal.gens) == 6


def test_scroll_rejects_bad_type():
    with pytest.raises(InputError):
        scroll(())
    with pytest.raises(InputError):
        scroll((2, 0))


def test_scroll_betti_grids_match_two_row_values():
    quadric = betti_table(scroll((1, 1)), pmax=2, qmax=2)
    assert dict(quadric.entries) == {(0, 0): 1, (1, 1): 1}
    cubic = betti_table(scroll((2, 1)), pmax=3, qmax=2)
    assert dict(cubic.entries) == {(0, 0): 1, (1, 1): 3, (2, 1): 2}
    quartic = betti_table(rational_normal_curve(4), pmax=4, qmax=2)
    assert dict(quartic.entries) == {(0, 0): 1, (1, 1): 6, (2, 1): 8, (3, 1): 3}


def test_en_betti_frozen_rows():
    assert [en_betti(3, p) for p in (1, 2, 3)] == [3, 2, 0]
    assert [en_betti(4, p) for p in (1, 2, 3, 4)] == [6, 8, 3, 0]
    assert [en_betti(5, p) for p in (1, 2, 3, 4, 5)] == [10, 20, 15, 4, 0]
    with pytest.raises(InputError):
        en_betti(0, 1)


def test_expected_grid_matches_computed_grid():
    e = (1, 1, 1)
    got = betti_table(scroll(e), pmax=4, qmax=1)
    assert dict(got.entries) == expected_scroll_betti(e, 4, 1)


def test_scroll_corpus_enumeration():
    corpus = [scroll(t) for t in scroll_types()]
    types = [s.labels["type"] for s in corpus]
    assert len(types) == 15
    assert types[:6] == [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    assert (5,) in types and (4, 1) in types and (2, 2, 1) in types
    assert all(sum(t) <= 5 and len(t) <= 3 for t in types)
    assert all(t == tuple(sorted(t, reverse=True)) for t in types)
    assert len(set(types)) == 15


@pytest.mark.parametrize("char", [2, 3, 32003])
def test_scroll_floor_is_the_computed_numerator(char):
    # the closed form, (1 + (d-1)t)(1-t)^(d-1), against the numerator of a
    # basis computed without it
    for e in scroll_types(max_degree=8, max_dim=8):
        s = scroll(e, char)
        assert s.ideal._floor == Ideal(s.ring, s.ideal.gens).hilbert_series_numerator(), e
        assert s.ideal.hilbert_series_numerator() == s.ideal._floor, e


def test_generator_size_rule(monkeypatch):
    # two terms per 2x2 minor of a scroll, one per coefficient a complete
    # intersection draws; the bound does not read any Koszul budget
    assert GENERATOR_BUDGET == DEFAULT_ENTRY_BUDGET // 8000 == 2000
    with pytest.raises(BudgetError, match="scroll \\(46,\\) would write 2070 generator terms"):
        rational_normal_curve(46)  # 2 * C(46, 2); rnc 45 writes 1980
    with pytest.raises(BudgetError, match="scroll \\(23, 23\\) would write 2070 "):
        scroll((23, 23))
    with pytest.raises(BudgetError, match="\\(17, 17\\) would write 2280 "):
        complete_intersection((17, 17))  # 2 * C(17 + 3, 3); (16, 16) draws 1938
    # at the bound itself a recipe builds
    monkeypatch.setattr(builders, "GENERATOR_BUDGET", 2 * 6)
    rational_normal_curve(4)
    scroll((2, 2))
    with pytest.raises(BudgetError, match="would write 20 "):
        rational_normal_curve(5)
    monkeypatch.setattr(builders, "GENERATOR_BUDGET", 10 + 20)
    complete_intersection((2, 3))
    monkeypatch.setattr(builders, "GENERATOR_BUDGET", 10 + 20 - 1)
    with pytest.raises(BudgetError, match="\\(2, 3\\) would write 30 "):
        complete_intersection((2, 3))


def test_sample_points_land_on_scroll():
    s = scroll((2, 1))
    pts = sample_points(s, 6, seed=3)
    assert len({p.coords for p in pts}) == 6
    assert all(s.contains(p.coords) for p in pts)
    again = sample_points(s, 6, seed=3)
    assert [p.coords for p in again] == [p.coords for p in pts]


def test_sample_points_need_a_parametrization():
    ci = complete_intersection((2, 3))
    with pytest.raises(InputError):
        sample_points(ci, 2, seed=0)


# ---------------------------------------------------------------------------
# complete intersections


def test_complete_intersection_quadric_cubic():
    ci = complete_intersection((2, 3))
    hd = ci.ideal.hilbert_data()
    assert (hd.dimension, hd.degree) == (1, 6)
    grid = betti_table(ci, pmax=2, qmax=3)
    assert dict(grid.entries) == {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}


def test_complete_intersection_three_quadrics():
    ci = complete_intersection((2, 2, 2))
    hd = ci.ideal.hilbert_data()
    assert (hd.dimension, hd.degree) == (1, 8)
    grid = betti_table(ci, pmax=3, qmax=3)
    assert dict(grid.entries) == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}


def test_complete_intersection_grid_stable_across_fields():
    grid = betti_table(complete_intersection((2, 3), char=31991), pmax=2, qmax=3)
    assert dict(grid.entries) == {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}


def test_complete_intersection_redraws_forms_that_are_not_a_regular_sequence(monkeypatch):
    # the second draw repeats the first, so the first pair of quadrics is
    # one quadric twice; its Hilbert function is above the floor the
    # builder gives Buchberger, and the builder must see that and redraw
    import syzkit.builders as builders

    real = builders.seeded_rng
    draws = []

    class Repeating:
        def __init__(self, seed):
            self.rng = real(seed)

        def integers(self, low, high, size):
            out = draws[0] if len(draws) == 1 else self.rng.integers(low, high, size=size)
            draws.append(out)
            return out

    monkeypatch.setattr(builders, "seeded_rng", Repeating)
    ci = complete_intersection((2, 2))
    assert len(draws) == 4
    assert ci.ideal.gens[0] != ci.ideal.gens[1]
    fresh = Ideal(ci.ring, ci.ideal.gens)
    assert ci.ideal.hilbert_series_numerator() == fresh.hilbert_series_numerator()
    assert ci.ideal.hilbert_data() == fresh.hilbert_data()
    assert (fresh.hilbert_data().dimension, fresh.hilbert_data().degree) == (1, 4)


def test_complete_intersection_rejects_linear_degrees():
    with pytest.raises(InputError):
        complete_intersection((1, 3))


# ---------------------------------------------------------------------------
# nodal plane quintics


def test_one_node_quintic(one_node):
    assert one_node.curve.degree() == 5
    assert one_node.geometric_genus() == 5
    assert [n.coords for n in one_node.nodes] == [(0, 0, 1)]
    conics = sorted(str(f) for f in adjoint_system(one_node, 2))
    assert conics == sorted(["x0^2", "x0*x1", "x1^2", "x0*x2", "x1*x2"])


def test_two_node_quintic(two_node):
    assert two_node.geometric_genus() == 4
    assert [n.coords for n in two_node.nodes] == [(0, 0, 1), (0, 1, 0)]
    both = sorted(str(f) for f in adjoint_system(two_node, 2))
    assert both == sorted(["x0^2", "x0*x1", "x0*x2", "x1*x2"])
    first = sorted(str(f) for f in adjoint_system(two_node, 2, through=[0]))
    assert first == sorted(["x0^2", "x0*x1", "x1^2", "x0*x2", "x1*x2"])


def test_nodal_quintic_rejects_other_counts():
    with pytest.raises(InputError):
        nodal_quintic(3)


def test_validation_rejects_a_cusp():
    ring = PolyRing(CHAR, ("x0", "x1", "x2"))
    cusp = ring.parse("x0^2*x2^3 + x1^3*x2^2 + x0^5")
    node = ProjectivePoint.make(CHAR, (0, 0, 1))
    with pytest.raises(InputError, match="not a node"):
        validate_plane_model(PlaneModel(curve=cusp, nodes=[node]))


def test_validation_rejects_a_non_split_node():
    # local quadratic part x0^2 + x1^2 has discriminant -4, a non-square
    # mod 32003 (which is 3 mod 4)
    ring = PolyRing(CHAR, ("x0", "x1", "x2"))
    curve = ring.parse("x0^2*x2^3 + x1^2*x2^3 + x1^5")
    node = ProjectivePoint.make(CHAR, (0, 0, 1))
    with pytest.raises(InputError, match="split"):
        validate_plane_model(PlaneModel(curve=curve, nodes=[node]))


def test_validation_rejects_smooth_claimed_node():
    ring = PolyRing(CHAR, ("x0", "x1", "x2"))
    curve = ring.parse("x0^5 + x1^5 + x0*x2^4")
    node = ProjectivePoint.make(CHAR, (0, 0, 1))
    with pytest.raises(InputError, match="not singular"):
        validate_plane_model(PlaneModel(curve=curve, nodes=[node]))


def test_validation_rejects_undeclared_singularities(two_node):
    partial_claim = PlaneModel(curve=two_node.curve, nodes=[two_node.nodes[0]])
    with pytest.raises(InputError, match="exactly nodal"):
        validate_plane_model(partial_claim)


def test_plane_curve_points_avoid_nodes(one_node):
    rng = np.random.default_rng(11)
    for _ in range(5):
        pt = plane_curve_point(one_node, rng)
        assert one_node.curve.evaluate(pt.coords) == 0
        assert pt.coords not in {n.coords for n in one_node.nodes}


def test_plane_curve_points_when_powers_of_x2_are_missing():
    # restricted to a line, this curve is a*z^4 + b: the powers z^1..z^3
    # have no terms, and every sampled point must still lie on the curve
    ring = PolyRing(101, ("x0", "x1", "x2"))
    model = PlaneModel(curve=ring.parse("x0^5 + x1^5 + x0*x2^4"), nodes=[])
    rng = np.random.default_rng(0)
    for _ in range(5):
        pt = plane_curve_point(model, rng)
        assert model.curve.evaluate(pt.coords) == 0


def test_plane_curve_point_at_the_largest_prime():
    # the roots come from gcd(f, z^p - z): nothing is allocated per field
    # element, so a point is found at once even at p = 2**31 - 1
    p = 2**31 - 1
    model = nodal_quintic(2, char=p, seed=3)
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    points = [plane_curve_point(model, rng) for _ in range(5)]
    assert time.perf_counter() - start < 0.5
    for pt in points:
        assert model.curve.evaluate(pt.coords) == 0
        assert pt.coords not in {n.coords for n in model.nodes}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 101]),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
)
def test_roots_mod_p_match_evaluation(p, coeffs):
    if not any(c % p for c in coeffs):
        return
    expected = [
        z for z in range(p) if sum(c * pow(z, k, p) for k, c in enumerate(coeffs)) % p == 0
    ]
    assert _roots_mod_p(coeffs, p) == expected


# ---------------------------------------------------------------------------
# adjoint images and implicitization


def test_trigonal_canonical_curve(trigonal):
    hd = trigonal.ideal.hilbert_data()
    assert (hd.dimension, hd.degree) == (1, 8)
    assert sorted(g.degree() for g in trigonal.ideal.gens) == [2, 2, 2, 3, 3]
    grid = betti_table(trigonal, pmax=3, qmax=3)
    assert dict(grid.entries) == {
        (0, 0): 1,
        (1, 1): 3,
        (2, 1): 2,
        (1, 2): 2,
        (2, 2): 3,
        (3, 3): 1,
    }


def test_trigonal_quadric_hull_is_a_cubic_surface_scroll(trigonal):
    hull = quadric_hull(trigonal)
    hd = hull.ideal.hilbert_data()
    assert (hd.dimension, hd.degree) == (2, 3)
    grid = betti_table(hull, pmax=3, qmax=1)
    assert dict(grid.entries) == {(0, 0): 1, (1, 1): 3, (2, 1): 2}


def test_implicitization_routes_agree(two_node):
    forms = adjoint_system(two_node, 2, through=[0])
    via_kernels = implicitize_kernel(two_node, forms)
    via_elimination = implicitize_eliminate(two_node, forms)
    assert via_kernels.same_ideal(via_elimination)
    assert sorted(g.degree() for g in via_kernels.gens) == [2, 2, 2, 3, 3]


def test_nodal_image_matches_smooth_linear_strand(trigonal, nodal_d):
    hd = nodal_d.ideal.hilbert_data()
    assert (hd.dimension, hd.degree) == (1, 8)
    row = [koszul_dim(nodal_d, p, 1) for p in (1, 2, 3)]
    assert row == [3, 2, 0]
    assert row == [koszul_dim(trigonal, p, 1) for p in (1, 2, 3)]
    hull = quadric_hull(nodal_d)
    assert [koszul_dim(hull, p, 1) for p in (1, 2, 3)] == [3, 2, 0]
    assert [str(g) for g in hull.ideal.graded_basis(2)] == [
        str(g) for g in nodal_d.ideal.graded_basis(2)
    ]


def test_two_node_full_adjoint_image_is_genus_four_canonical(two_node):
    image = model_image(two_node, adjoint_system(two_node, 2))
    hd = image.ideal.hilbert_data()
    assert (hd.dimension, hd.degree) == (1, 6)
    grid = betti_table(image, pmax=2, qmax=3)
    assert dict(grid.entries) == {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}


def test_implicitization_rejects_mixed_degrees(one_node):
    ring = one_node.ring
    with pytest.raises(InputError, match="common degree"):
        implicitize_kernel(one_node, [ring.parse("x0^3"), ring.parse("x0*x1")])
    with pytest.raises(InputError, match="degree-2"):
        implicitize_eliminate(one_node, [ring.parse("x0^3"), ring.parse("x1^3")])


def test_linear_system_round_trip():
    # mapping the plane by its full linear system is the identity, so the
    # image ideal is the curve itself (written in the target variables)
    ring = PolyRing(CHAR, ("x0", "x1", "x2"))
    quartic = ring.parse("x0^4 + x1^4 + x2^4 + x0*x1*x2^2")
    model = PlaneModel(curve=quartic, nodes=[])
    validate_plane_model(model)
    lines = [ring.var(i) for i in range(3)]
    image = implicitize_kernel(model, lines, max_degree=4)
    assert [g.degree() for g in image.gens] == [4]
    assert str(image.gens[0]).replace("y", "x") == str(quartic)


def test_implicitization_rejects_dependent_forms(one_node):
    ring = one_node.ring
    q = ring.parse("x0^2")
    with pytest.raises(InputError, match="dependent"):
        implicitize_kernel(one_node, [q, q, ring.parse("x0*x1")])


def test_image_sampling_pushes_curve_points(nodal_d):
    pts = sample_points(nodal_d, 5, seed=4)
    assert len({p.coords for p in pts}) == 5
    assert all(nodal_d.contains(p.coords) for p in pts)
    push = nodal_d._parametrization["map"]
    with pytest.raises(InputError, match="base point"):
        push((0, 0, 1))
