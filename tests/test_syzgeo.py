"""Syzygy schemes, projections, membership routes.

Oracle values derived by hand on the degree-3 rational normal curve C in
P^3 with ideal generated by the 2x2 minors of [[x0,x1,x2],[x1,x2,x3]]:

- m2 = x0*x2 - x1^2, m1 = x0*x3 - x1*x2, m0 = x1*x3 - x2^2.
- Laplace expansion of the degenerate 3x3 determinants gives the two
  linear syzygies x0*m0 - x1*m1 + x2*m2 = 0 and x1*m0 - x2*m1 + x3*m2 = 0.
- The pure Koszul identity forces the quadrics extracted from any wedge
  degree 2 cocycle to satisfy sum_i x_i Q_i = 0 with Q_i in I_2, so the
  tuple (Q_0..Q_3) is a combination a*(m0,-m1,m2,0) + b*(0,m0,-m1,m2);
  for every (a,b) != 0 the span of the Q_i is all three quadrics.  Hence
  EVERY nonzero wedge-2 class has syzygy scheme exactly C.
- Projection of C from one of its points is a smooth conic (degree 2 in
  P^2); from a point off the curve it is a plane cubic (degree 3).
"""

import numpy as np
import pytest

from syzkit.builders import (
    adjoint_system,
    model_image,
    nodal_quintic,
    rational_normal_curve,
    sample_points,
    scroll,
)
from syzkit.errors import ConsistencyError, InputError
from syzkit.exactalg import SparseRows, kernel_basis
from syzkit.koszul import (
    KoszulCocycle,
    coboundary_rows,
    exterior_basis,
    k_p1_cocycle_basis,
    koszul_matrix,
    removal_sign,
)
from syzkit.polyring import BlockOrder, EmbeddedScheme, Ideal, PolyRing
from syzkit.syzgeo import (
    ProjectivePoint,
    _moved_contraction,
    _projected_cocycles,
    _route_b_holds,
    contract,
    move_point_matrix,
    project_class,
    project_scheme,
    reconstruct_from_projections,
    syz_membership,
    syzygy_quadrics,
    syzygy_scheme,
    transform_cocycle,
)

CHAR = 32003


def twisted_cubic(char=CHAR):
    ring = PolyRing(char, ("x0", "x1", "x2", "x3"))
    ideal = Ideal(ring, ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"])
    return EmbeddedScheme(ideal, labels={"kind": "rnc", "degree": 3})


@pytest.fixture(scope="module")
def tc():
    return twisted_cubic()


def moment_point(scheme, s, t):
    """(s^3, s^2 t, s t^2, t^3) lies on the curve for every (s:t)."""
    p = scheme.char
    return ProjectivePoint.make(p, (s**3, s**2 * t, s * t**2, t**3))


# ---------------------------------------------------------------------------
# points and contraction


def test_point_normalization():
    pt = ProjectivePoint.make(7, (0, 3, 6))
    assert pt.coords == (0, 1, 2)
    with pytest.raises(InputError):
        ProjectivePoint.make(7, (0, 0, 0))


def test_contract_by_hand(tc):
    alpha = KoszulCocycle(tc, 2, {((0, 1), 2): 1})
    pt = ProjectivePoint.make(CHAR, (1, 2, 0, 0))
    got = contract(pt, alpha)
    # i_x(e_0 ^ e_1) = -x_0 e_1 + x_1 e_0 with the removal signs
    assert got == {((1,), 2): CHAR - 1, ((0,), 2): 2}


def test_contract_drops_cancelling_terms(tc):
    alpha = KoszulCocycle(tc, 2, {((0, 1), 2): 1, ((0, 2), 1): 1})
    pt = ProjectivePoint.make(CHAR, (1, 0, 0, 0))
    got = contract(pt, alpha)
    # -e_1 (x) e_2 and -e_2 (x) e_1 survive; nothing cancels here
    assert got == {((1,), 2): CHAR - 1, ((2,), 1): CHAR - 1}


# ---------------------------------------------------------------------------
# syzygy quadrics and schemes


def test_single_quadric_class(tc):
    # alpha = e_1 (x) e_3 - e_2 (x) e_2 extracts -(x1 x3 - x2^2)
    alpha = KoszulCocycle(tc, 1, {((1,), 3): 1, ((2,), 2): -1})
    quads = syzygy_quadrics(alpha)
    assert list(quads) == [()]
    m0 = tc.ring.parse("x1*x3 - x2^2")
    assert quads[()] == m0.scale(-1)
    res = syzygy_scheme(alpha)
    assert len(res.quadrics) == 1
    hd = res.scheme.hilbert_data()
    assert (hd.dimension, hd.degree) == (2, 2)
    assert res.scheme.ideal.contains_ideal(res.scheme.ideal)
    assert tc.ideal.contains_ideal(res.scheme.ideal)  # Syz quadrics lie in I_2


def test_non_cocycle_rejected(tc):
    bad = KoszulCocycle(tc, 1, {((0,), 0): 1})  # extracts -x0^2, not in I_2
    with pytest.raises(InputError, match="not a cocycle"):
        syzygy_scheme(bad)


def test_zero_class_rejected(tc):
    row = coboundary_rows(tc, 2).rows[0]
    cob = KoszulCocycle.from_vector(tc, 2, row)
    assert cob.coeffs  # a nonzero representative of the zero class
    assert syzygy_quadrics(cob) == {}
    with pytest.raises(InputError, match="ambient"):
        syzygy_scheme(cob)


def test_quadrics_are_representative_independent(tc):
    alpha = k_p1_cocycle_basis(tc, 2)[0]
    row = coboundary_rows(tc, 2).rows[1]
    cob = KoszulCocycle.from_vector(tc, 2, row)
    shifted = alpha.add(cob)
    assert shifted.coeffs != alpha.coeffs
    assert syzygy_quadrics(shifted) == syzygy_quadrics(alpha)


def test_wedge2_syzygy_scheme_is_the_curve(tc):
    """Every nonzero wedge-2 class of the curve cuts out the curve again
    (hand argument in the module docstring)."""
    basis = k_p1_cocycle_basis(tc, 2)
    assert len(basis) == 2
    candidates = [
        basis[0],
        basis[1],
        basis[0].add(basis[1]),
        basis[0].scale(5).add(basis[1].scale(CHAR - 2)),
    ]
    for alpha in candidates:
        res = syzygy_scheme(alpha)
        assert res.scheme.ideal.same_ideal(tc.ideal)


def test_wedge2_quadrics_satisfy_the_koszul_relation(tc):
    """sum_i x_i * Q_{(i)} = 0 exactly, by the pure Koszul identity."""
    alpha = k_p1_cocycle_basis(tc, 2)[0]
    quads = syzygy_quadrics(alpha)
    ring = tc.ring
    total = ring.zero()
    for (i,), q in quads.items():
        total = total + q * ring.var(i)
    assert not total.terms


def test_wedge1_classes_give_quadric_hypersurfaces(tc):
    for alpha in k_p1_cocycle_basis(tc, 1):
        res = syzygy_scheme(alpha)
        assert len(res.quadrics) == 1
        assert tc.ideal.contains(res.quadrics[0])
        hd = res.scheme.hilbert_data()
        assert (hd.dimension, hd.degree) == (2, 2)


# ---------------------------------------------------------------------------
# moving points, transforming cocycles


def test_move_point_matrix_sends_last_basis_vector_to_point():
    pt = ProjectivePoint.make(CHAR, (1, 2, 3, 4))
    mat = np.asarray(move_point_matrix(pt))
    assert list(mat[:, 3]) == list(pt.coords)
    # the moved ideal contains the distinguished point
    ring = PolyRing(CHAR, ("x0", "x1", "x2", "x3"))
    ideal = Ideal(ring, ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"])
    onpt = (1, 2, 4, 8)  # s=1, t=2
    moved = ideal.change_coordinates(move_point_matrix(ProjectivePoint.make(CHAR, onpt)))
    assert all(g.evaluate((0, 0, 0, 1)) == 0 for g in moved.gens)


# at 2**31 - 1 the products of two residues no longer fit in an int64, so
# the minors of the coordinate change must be computed exactly
@pytest.mark.parametrize("char", [CHAR, 2**31 - 1])
def test_transform_cocycle_equivariance(char):
    tc = twisted_cubic(char)
    rng = np.random.default_rng(7)
    alpha = k_p1_cocycle_basis(tc, 2)[0]
    for _ in range(3):
        while True:
            a = rng.integers(0, char, size=(4, 4))
            try:
                moved_ideal = tc.ideal.change_coordinates(a)
                break
            except InputError:
                continue
        moved = EmbeddedScheme(moved_ideal, labels={"kind": "moved"})
        beta = transform_cocycle(alpha, a, moved)
        assert beta.is_cocycle()
        # extraction commutes with the coordinate change
        syz_moved = syzygy_scheme(beta).scheme.ideal
        syz_then_move = syzygy_scheme(alpha).scheme.ideal.change_coordinates(a)
        assert syz_moved.same_ideal(syz_then_move)


def test_transform_cocycle_identity(tc):
    alpha = k_p1_cocycle_basis(tc, 2)[0]
    same = transform_cocycle(alpha, np.eye(4, dtype=np.int64), tc)
    assert same.coeffs == alpha.coeffs


# ---------------------------------------------------------------------------
# projecting schemes


def test_project_curve_from_its_point(tc):
    ctx = project_scheme(tc, moment_point(tc, 1, 1))
    hd = ctx.projected.hilbert_data()
    assert (hd.dimension, hd.degree) == (1, 2)  # smooth conic
    assert ctx.projected.ring.nvars == 3
    assert ctx.projected.ring.names == ("x0", "x1", "x2")


def test_project_curve_from_external_point(tc):
    ctx = project_scheme(tc, (0, 1, 0, 0))
    hd = ctx.projected.hilbert_data()
    assert (hd.dimension, hd.degree) == (1, 3)  # plane cubic
    # the moved scheme is the curve in new coordinates: same Hilbert data
    mhd = ctx.moved.hilbert_data()
    assert (mhd.dimension, mhd.degree) == (1, 3)


@pytest.mark.parametrize("point", [(1, 1, 1, 1), (0, 1, 0, 0), (3, 1, 4, 1)])
def test_projection_computes_only_the_elimination_basis(monkeypatch, point):
    """project_scheme runs no Buchberger; the first read of `projected`
    runs one, in the block order."""
    from syzkit import polyring

    tc = twisted_cubic()  # validated: its DRL basis is cached
    orders = []
    real = polyring.buchberger

    def counting(gens, order, p, hilbert=None):
        orders.append(order.name)
        return real(gens, order, p, hilbert)

    monkeypatch.setattr(polyring, "buchberger", counting)
    ctx = project_scheme(tc, point)
    assert orders == []  # moving the point eliminates nothing
    ctx.projected
    assert orders == [BlockOrder((3,), 4).name]
    monkeypatch.undo()
    # the schemes built from scratch: the moved ideal validated again, the
    # projected one re-wrapped from the elimination generators
    mat = move_point_matrix(ctx.point)
    ring = tc.ring
    moved = EmbeddedScheme(
        Ideal(ring, [g.substitute_linear(mat) for g in tc.ideal.gens]),
        labels={**tc.labels, "moved-point": "last-coordinate"},
    )
    eliminated = Ideal(ring, moved.ideal.gens).eliminate((3,))
    projected = EmbeddedScheme(
        Ideal(eliminated.ring, eliminated.gens), labels={**tc.labels, "projected-from": "point"}
    )
    for got, want in ((ctx.moved, moved), (ctx.projected, projected)):
        assert got.ideal.gens == want.ideal.gens
        assert got.labels == want.labels
        assert got.hilbert_data() == want.hilbert_data()
        assert got.ideal.hilbert_series_numerator() == want.ideal.hilbert_series_numerator()
        assert [list(g.items()) for g in got.ideal.groebner()] == [
            list(g.items()) for g in want.ideal.groebner()
        ]


def test_project_rejects_wrong_length(tc):
    with pytest.raises(InputError, match="coordinate count"):
        project_scheme(tc, (1, 0, 0))


# ---------------------------------------------------------------------------
# projecting classes


def test_project_class_from_point_on_curve(tc):
    pts = [moment_point(tc, 1, 1), moment_point(tc, 1, 2), moment_point(tc, 0, 1)]
    basis = k_p1_cocycle_basis(tc, 2)
    found_nonzero = False
    for alpha in basis:
        for pt in pts:
            projected = project_class(alpha, pt)
            beta = projected.cocycle
            assert beta.p == 1
            assert beta.is_cocycle()
            quads = syzygy_quadrics(beta)
            if quads:
                found_nonzero = True
                # the conic has a 1-dim space of quadrics: its own equation
                res = syzygy_scheme(beta)
                assert res.scheme.ideal.same_ideal(projected.context.projected.ideal)
    assert found_nonzero


def test_project_class_requires_point_on_scheme(tc):
    alpha = k_p1_cocycle_basis(tc, 2)[0]
    with pytest.raises(InputError, match="not on the scheme"):
        project_class(alpha, (0, 1, 0, 0))
    # a point of the wrong length is refused as off the scheme when it
    # fails on the coordinates it has, and for its length otherwise
    with pytest.raises(InputError, match="not on the scheme"):
        project_class(alpha, (0, 1, 0))
    with pytest.raises(InputError, match="wrong coordinate count"):
        project_class(alpha, (1, 0, 0, 0, 0))


def test_project_class_requires_wedge_degree_two(tc):
    alpha = k_p1_cocycle_basis(tc, 1)[0]
    with pytest.raises(InputError, match="p >= 2"):
        project_class(alpha, moment_point(tc, 1, 1))


# ---------------------------------------------------------------------------
# membership


def test_membership_single_quadric(tc):
    # Syz(alpha) = V(x1 x3 - x2^2)
    alpha = KoszulCocycle(tc, 1, {((1,), 3): 1, ((2,), 2): -1})
    on_quadric_off_curve = syz_membership(alpha, (1, 0, 0, 1))
    assert on_quadric_off_curve.member
    assert not on_quadric_off_curve.point_on_scheme

    off_quadric = syz_membership(alpha, (1, 0, 1, 0))
    assert not off_quadric.member

    on_curve = syz_membership(alpha, moment_point(tc, 1, 1))
    assert on_curve.member
    assert on_curve.point_on_scheme


def test_membership_wedge2(tc):
    # Syz(alpha) = the curve itself for every nonzero wedge-2 class
    alpha = k_p1_cocycle_basis(tc, 2)[0]
    for s, t in [(1, 1), (1, 2), (2, 1), (0, 1), (1, 0)]:
        res = syz_membership(alpha, moment_point(tc, s, t))
        assert res.member and res.point_on_scheme
    off = syz_membership(alpha, (1, 1, 1, 0))
    assert not off.member and not off.point_on_scheme
    off2 = syz_membership(alpha, (1, 0, 0, 1))
    assert not off2.member


@pytest.mark.parametrize("char", [2, 3])
def test_membership_off_the_curve_at_small_primes(char):
    """Off the curve the contraction at the moved point has terms at x_n:
    route A reads them, and route B finds it outside the projection's
    cocycles.  A wedge-1 class also meets points of its quadric."""
    curve = twisted_cubic(char)
    last = ProjectivePoint.make(char, (0, 0, 0, 1))
    single = KoszulCocycle(curve, 1, {((1,), 3): 1, ((2,), 2): -1})
    off_curve = [(0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]
    for alpha in [single, *k_p1_cocycle_basis(curve, 2)]:
        quads = syzygy_quadrics(alpha).values()
        for coords in off_curve:
            assert not curve.contains(coords)
            direct = all(q.evaluate(coords) == 0 for q in quads)
            assert syz_membership(alpha, coords).member == direct
            ctx = project_scheme(curve, coords)
            gamma = contract(last, transform_cocycle(alpha, ctx.matrix, ctx.moved))
            assert direct == all(var != 3 for _, var in gamma)
    # the wedge-2 classes cut out the curve; V(x1 x3 - x2^2) holds (1, 0, 0, 1)
    assert syz_membership(single, (1, 0, 0, 1)).member


def _points_on_and_off(scheme):
    """The coordinate points, (1, ..., 1) and (1, 2, ..., n + 1), with how
    many of them lie on the scheme."""
    nv = scheme.ring.nvars
    points = [tuple(int(i == j) for i in range(nv)) for j in range(nv)]
    points += [(1,) * nv, tuple(range(1, nv + 1))]
    return points, sum(scheme.contains(coords) for coords in points)


def _trigonal_g5(char):
    one_node = nodal_quintic(1, char, seed=0)
    return model_image(one_node, adjoint_system(one_node, 2))


# (builder, the wedge degrees p of the classes to transport)
_TRANSPORT_INSTANCES = {
    "rnc 2": (lambda char: rational_normal_curve(2, char), (1,)),
    "rnc 3": (lambda char: rational_normal_curve(3, char), (1, 2)),
    "rnc 4": (lambda char: rational_normal_curve(4, char), (1, 2, 3)),
    "scroll 1 2": (lambda char: scroll((1, 2), char), (2,)),
    "trigonal-g5": (_trigonal_g5, (2,)),
}


@pytest.mark.parametrize("char", [2, 3, CHAR])
@pytest.mark.parametrize("name", sorted(_TRANSPORT_INSTANCES))
def test_transported_contraction_is_the_moved_class_contracted(name, char):
    """The move matrix has the point as its last column, so contracting
    the moved class at the last coordinate point equals contracting at the
    point and transporting, coefficient for coefficient.  The coordinate
    points have their last coordinate 0, so their move permutes."""
    build, wedge_degrees = _TRANSPORT_INSTANCES[name]
    scheme = build(char)
    n = scheme.ring.nvars - 1
    last = ProjectivePoint.make(char, (0,) * n + (1,))
    points = _points_on_and_off(scheme)[0] + [pt.coords for pt in sample_points(scheme, 1, seed=3)]
    assert 0 < sum(scheme.contains(coords) for coords in points) < len(points)
    contexts = [project_scheme(scheme, coords) for coords in points]
    assert any(ctx.point.coords[n] == 0 for ctx in contexts)
    for p in wedge_degrees:
        classes = k_p1_cocycle_basis(scheme, p)
        assert classes
        for alpha in classes:
            for ctx in contexts:
                reference = contract(last, transform_cocycle(alpha, ctx.matrix, ctx.moved))
                assert _moved_contraction(ctx, alpha) == reference


@pytest.mark.parametrize("char", [2, 3, CHAR])
@pytest.mark.parametrize(
    "build, arg",
    [(rational_normal_curve, 3), (rational_normal_curve, 4), (scroll, (1, 2))],
    ids=["rnc 3", "rnc 4", "scroll 1 2"],
)
def test_w_coboundaries_lie_in_the_projected_cocycles(build, arg, char):
    """Route B spans the cocycles of the projection Y alone.  Each
    W-coboundary delta(e_K), K inside the first n coordinates, is a column
    of delta_{p,0}(Y), so a cocycle of Y since delta o delta = 0 in the pure
    Koszul complex: it passes route B for every wedge degree p, from points
    on and off the scheme.  A term at var == n never does."""
    scheme = build(arg, char)
    n = scheme.ring.nvars - 1
    points, on = _points_on_and_off(scheme)
    for coords in points:
        ctx = project_scheme(scheme, coords)
        for p in range(1, n + 1):
            for K in exterior_basis(n, p):
                cob = {(K[:k] + K[k + 1 :], i): removal_sign(k) for k, i in enumerate(K)}
                assert _route_b_holds(ctx, cob, p), (coords, K)
            assert not _route_b_holds(ctx, {(tuple(range(p - 1)), n): 1}, p)
    assert 0 < on < n + 3


@pytest.mark.parametrize("char", [2, 3, CHAR])
@pytest.mark.parametrize(
    "build, arg",
    [(rational_normal_curve, 3), (rational_normal_curve, 4), (scroll, (1, 2))],
    ids=["rnc 3", "rnc 4", "scroll 1 2"],
)
def test_projected_cocycles_are_read_off_the_moved_scheme(build, arg, char):
    """The degree-2 identity (I_Y)_2 = (I_moved)_2 meet S'_2: the moved
    delta_{p-1,1} restricted to wedges and variables below n has the kernel
    of delta_{p-1,1} of the eliminated projection Y, embedded in the moved
    (wedge, var) layout.  The elimination is the oracle; both kernels are in
    canonical form over the same column order, so their rows agree."""
    scheme = build(arg, char)
    nv = scheme.ring.nvars
    n = nv - 1
    points, on = _points_on_and_off(scheme)
    assert 0 < on < len(points)
    for coords in points:
        ctx = project_scheme(scheme, coords)
        for p in range(1, nv + 1):
            got = _projected_cocycles(ctx, p)
            ymat = koszul_matrix(ctx.projected, p - 1, 1)
            width = len(exterior_basis(n, p - 1)) * n
            want = kernel_basis(ymat or SparseRows([], width), char)
            # Y's wedges are the moved wedges free of n, in the same order
            wedges = exterior_basis(nv, p - 1)
            free = [i for i, w in enumerate(wedges) if n not in w]
            embedded = [
                {free[idx // n] * nv + idx % n: c for idx, c in row.items()} for row in want.rows
            ]
            assert got.ncols == len(wedges) * nv
            assert got.rows == embedded, (coords, p)


def test_membership_and_class_projection_eliminate_nothing(monkeypatch):
    """syz_membership, project_class and reconstruct_from_projections run no
    block-order Buchberger: they read the projection off the moved scheme.
    Reading a projected class over Y eliminates, once."""
    from syzkit import polyring

    curve = rational_normal_curve(4)
    alpha = k_p1_cocycle_basis(curve, 3)[0]
    on = [(1, 0, 0, 0, 0), (0, 0, 0, 0, 1), (1, 1, 1, 1, 1), (1, 2, 4, 8, 16), (16, 8, 4, 2, 1)]
    orders = []
    real = polyring.buchberger

    def counting(gens, order, p, hilbert=None):
        orders.append(order.name)
        return real(gens, order, p, hilbert)

    monkeypatch.setattr(polyring, "buchberger", counting)
    for coords in [*on, (0, 1, 0, 0, 0), (1, 0, 0, 0, 1)]:
        syz_membership(alpha, coords)
    projected = [project_class(alpha, coords) for coords in on]
    result = reconstruct_from_projections(alpha, on)
    assert result.cones and len(result.cones) + len(result.warnings) == len(on)
    assert orders and not [name for name in orders if name.startswith("elim")]
    beta = projected[2].cocycle
    assert orders[-1] == BlockOrder((4,), 5).name
    assert beta.scheme is projected[2].context.projected
    assert beta.is_cocycle() and beta.coeffs == projected[2].gamma.coeffs


def test_membership_rejects_zero_class(tc):
    row = coboundary_rows(tc, 2).rows[0]
    cob = KoszulCocycle.from_vector(tc, 2, row)
    with pytest.raises(InputError, match="zero class"):
        syz_membership(cob, (1, 0, 0, 0))


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_curve_from_projections(tc):
    alpha = k_p1_cocycle_basis(tc, 2)[0]
    pts = [
        moment_point(tc, 1, 0),
        moment_point(tc, 2, 1),
        moment_point(tc, 1, 1),
        moment_point(tc, 1, 2),
    ]
    result = reconstruct_from_projections(alpha, pts)
    assert result.warnings == []
    assert len(result.cones) == 4
    # every cone contains the syzygy scheme (exact ideal-level inclusion)
    syz_ideal = result.syzygy.scheme.ideal
    for _, cone, _ in result.cones:
        assert syz_ideal.contains_ideal(cone)
    # and the intersection of the cones is exactly the syzygy scheme
    assert result.ideal.equal_as_schemes(syz_ideal)
    assert syz_ideal.same_ideal(tc.ideal)


def test_reconstruct_skips_points_that_kill_the_class(tc):
    """The wedge-2 class space is 2-dimensional and each projection target
    is 1-dimensional, so every point of the curve kills a line of classes;
    (0,0,0,1) kills the first basis class.  The cone for such a point is
    skipped with a warning, and the result is still sandwiched between the
    syzygy scheme and the ambient space."""
    alpha = k_p1_cocycle_basis(tc, 2)[0]
    pts = [
        moment_point(tc, 1, 0),
        moment_point(tc, 0, 1),
        moment_point(tc, 1, 1),
        moment_point(tc, 1, 2),
    ]
    result = reconstruct_from_projections(alpha, pts)
    assert len(result.warnings) == 1
    assert "kills the class" in result.warnings[0]
    assert len(result.cones) == 3
    syz_ideal = result.syzygy.scheme.ideal
    assert syz_ideal.contains_ideal(result.ideal)


def test_reconstruct_needs_spanning_points(tc):
    alpha = k_p1_cocycle_basis(tc, 2)[0]
    pts = [moment_point(tc, 1, 0), moment_point(tc, 0, 1), moment_point(tc, 1, 1)]
    with pytest.raises(InputError, match="span"):
        reconstruct_from_projections(alpha, pts)


def test_reconstruct_rejects_points_off_scheme(tc):
    alpha = k_p1_cocycle_basis(tc, 2)[0]
    pts = [
        moment_point(tc, 1, 0),
        moment_point(tc, 0, 1),
        moment_point(tc, 1, 1),
        ProjectivePoint.make(CHAR, (0, 1, 0, 0)),
    ]
    with pytest.raises(InputError, match="not on the scheme"):
        reconstruct_from_projections(alpha, pts)


def test_second_prime_agrees():
    ring = PolyRing(31991, ("x0", "x1", "x2", "x3"))
    ideal = Ideal(ring, ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"])
    curve = EmbeddedScheme(ideal, labels={"kind": "rnc", "degree": 3})
    basis = k_p1_cocycle_basis(curve, 2)
    assert len(basis) == 2
    for alpha in basis:
        assert syzygy_scheme(alpha).scheme.ideal.same_ideal(curve.ideal)
