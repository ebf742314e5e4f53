"""Syzygy schemes of linear syzygies, projection from points, membership.

A linear-strand cocycle alpha in Lambda^p V (x) V of a scheme X determines
a quadric for every (p-1)-subset J of the coordinates: the e_J coefficient
of the pure Koszul image of alpha in Lambda^{p-1} V (x) Sym^2 V.  The
common zero locus of these quadrics is the syzygy scheme of alpha; the
cocycle condition puts every one of them inside I(X)_2, so X sits inside
the syzygy scheme automatically.

Projection from a point x moves x to the distinguished (last) coordinate
point, contracts the first tensor factor, and restricts to the forms
vanishing at x.  Two independent membership tests for "x lies on the
syzygy scheme" are provided:

- route A: after the move, the contraction obstruction lives exactly on
  the (wedge containing n, variable n) coefficient slots; membership is
  their vanishing (equivalently: the syzygy quadrics vanish at x).
- route B: the contracted tensor represents a class in the subcomplex
  built from the hyperplane W of forms vanishing at x; membership is that
  the class comes from the projected scheme Y, tested as a span membership
  against Y's cocycles plus the W-coboundaries.

The two routes agree unconditionally (delta anti-commutes with the
contraction on the W-subcomplex); any disagreement raises ConsistencyError
because it can only be a bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConsistencyError, InputError
from .exactalg import SparseRows, in_span, kernel_basis, matrix_inverse, rank as matrix_rank
from .koszul import (
    KoszulCocycle,
    exterior_basis,
    koszul_matrix,
    koszul_space_dim,
    removal_sign,
)
from .polyring import EmbeddedScheme, Ideal, Polynomial


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of P^n over F_p, stored with the first nonzero coordinate
    scaled to 1 (canonical representative)."""

    char: int
    coords: tuple

    @classmethod
    def make(cls, char: int, coords) -> "ProjectivePoint":
        vals = [int(c) % char for c in coords]
        lead = next((i for i, c in enumerate(vals) if c), None)
        if lead is None:
            raise InputError("all-zero coordinates do not define a point")
        inv = pow(vals[lead], -1, char)
        return cls(char, tuple(c * inv % char for c in vals))

    def __len__(self):
        return len(self.coords)


def contract(point: ProjectivePoint, cocycle: KoszulCocycle) -> dict:
    """Contraction of the first tensor factor against the evaluation
    functional of the point: { (wedge minus i, var): coeff } summed with
    the removal signs.  Returned as a plain coefficient dict on
    Lambda^{p-1} V (x) V."""
    char = cocycle.scheme.char
    out: dict = {}
    for (wedge, var), c in cocycle.coeffs.items():
        for k, i in enumerate(wedge):
            a = point.coords[i]
            if not a:
                continue
            key = (wedge[:k] + wedge[k + 1 :], var)
            v = (out.get(key, 0) + removal_sign(k) * a * c) % char
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


# ---------------------------------------------------------------------------
# syzygy schemes


@dataclass
class SyzygySchemeResult:
    scheme: EmbeddedScheme
    quadrics: list
    source: EmbeddedScheme
    cocycle: KoszulCocycle


def syzygy_quadrics(cocycle: KoszulCocycle) -> dict:
    """The quadric attached to each (p-1)-subset J: the e_J coefficient of
    the pure Koszul differential of the cocycle.  Keys are wedge tuples J,
    values Polynomials; zero quadrics are omitted."""
    ring = cocycle.scheme.ring
    char = ring.char
    acc: dict[tuple, dict] = {}
    for (wedge, j), c in cocycle.coeffs.items():
        for k, i in enumerate(wedge):
            target = wedge[:k] + wedge[k + 1 :]
            e = [0] * ring.nvars
            e[i] += 1
            e[j] += 1
            mono = tuple(e)
            bucket = acc.setdefault(target, {})
            v = (bucket.get(mono, 0) + removal_sign(k) * c) % char
            if v:
                bucket[mono] = v
            elif mono in bucket:
                del bucket[mono]
    return {J: Polynomial(ring, terms) for J, terms in sorted(acc.items()) if terms}


def syzygy_scheme(cocycle: KoszulCocycle) -> SyzygySchemeResult:
    """The common zero scheme of the quadrics attached to a nonzero linear
    syzygy class.

    Rejects representatives of the zero class (their quadrics all vanish,
    which would make the syzygy scheme the ambient space): by exactness of
    the pure Koszul complex these are exactly the coboundaries, so the
    extraction map itself is the test.  Also checks the cocycle condition:
    every extracted quadric must lie in I(X)_2."""
    source = cocycle.scheme
    quads = syzygy_quadrics(cocycle)
    if not quads:
        raise InputError(
            "the syzygy scheme of the zero class is the ambient space by "
            "convention; rejected"
        )
    for J, q in quads.items():
        if source.ideal.normal_form(q).terms:
            raise InputError(
                f"input is not a cocycle: extracted quadric at {J} is not in "
                "the scheme's ideal"
            )
    ideal = Ideal(source.ring, list(quads.values()))
    scheme = EmbeddedScheme(
        ideal,
        labels={
            "kind": "syzygy-scheme",
            "p": cocycle.p,
            "source": source.labels.get("kind", "scheme"),
        },
    )
    return SyzygySchemeResult(
        scheme=scheme, quadrics=list(quads.values()), source=source, cocycle=cocycle
    )


# ---------------------------------------------------------------------------
# moving a point to the distinguished position


def _wedge_minors(a: list, wedge: tuple, char: int) -> dict:
    """{K: det a[wedge, K] mod char} over the column subsets K with a nonzero
    minor: the coefficients of the exterior product of the rows a[i], i in
    wedge, expanded over their nonzero entries with exact Python ints."""
    terms = {(): 1}
    for i in wedge:
        row = [(j, v) for j, v in enumerate(a[i]) if v]
        grown: dict = {}
        for K, c in terms.items():
            for j, v in row:
                if j in K:
                    continue
                # e_K ^ e_j = (-1)^#{k in K : k > j} e_{K + j}
                sign = -1 if sum(k > j for k in K) % 2 else 1
                key = tuple(sorted(K + (j,)))
                grown[key] = (grown.get(key, 0) + sign * c * v) % char
        terms = grown
    return {K: d for K, d in sorted(terms.items()) if d}


def move_point_matrix(point: ProjectivePoint) -> list[list[int]]:
    """Substitution matrix A, as int rows, with the point as last column
    and identity columns elsewhere: the coordinate change f -> f(A x)
    carries the zero set so that the point lands on [0 : ... : 0 : 1]."""
    n = len(point.coords)
    pivot = max(i for i, c in enumerate(point.coords) if c)
    cols = [i for i in range(n) if i != pivot]
    mat = [[0] * (n - 1) + [c] for c in point.coords]
    for j, i in enumerate(cols):
        mat[i][j] = 1
    return mat


def transform_cocycle(
    cocycle: KoszulCocycle, matrix, target: EmbeddedScheme
) -> KoszulCocycle:
    """Transport a cocycle along the substitution x_i -> sum_j m[i][j] x_j.

    Wedge factors transform by minors of the matrix, the last factor
    linearly; the result is a cocycle for the transformed scheme."""
    char = cocycle.scheme.char
    nv = cocycle.scheme.ring.nvars
    a = [[int(v) % char for v in row] for row in matrix]
    p = cocycle.p
    out: dict = {}
    minor_cache: dict = {}
    for (wedge, var), c in cocycle.coeffs.items():
        minors = minor_cache.get(wedge)
        if minors is None:
            minors = minor_cache[wedge] = _wedge_minors(a, wedge, char)
        for K, d in minors.items():
            for l in range(nv):
                al = a[var][l]
                if not al:
                    continue
                key = (K, l)
                v = (out.get(key, 0) + c * d * al) % char
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
    moved = KoszulCocycle(target, p, out)
    return moved


@dataclass
class ProjectionContext:
    """Everything attached to projecting a scheme from a point."""

    source: EmbeddedScheme
    point: ProjectivePoint
    matrix: list
    moved: EmbeddedScheme
    projected: EmbeddedScheme


def project_scheme(scheme: EmbeddedScheme, point) -> ProjectionContext:
    """Project a scheme from an ambient point: move the point last, then
    eliminate the last variable.  The projected ideal is the exact
    elimination ideal (the closure of the image)."""
    pt = point if isinstance(point, ProjectivePoint) else ProjectivePoint.make(scheme.char, point)
    if len(pt.coords) != scheme.ring.nvars:
        raise InputError("point has wrong coordinate count for the ambient space")
    if scheme.contains(pt.coords) and scheme.hilbert_data().dimension == 0:
        raise InputError("cannot project a zero-dimensional scheme from itself")
    mat = move_point_matrix(pt)
    moved = scheme.change_coordinates(mat, {**scheme.labels, "moved-point": "last-coordinate"})
    n = scheme.ring.nvars - 1
    # the elimination ideal carries its DRL basis; the scheme checks homogeneity
    projected = EmbeddedScheme(
        moved.ideal.eliminate((n,)), labels={**scheme.labels, "projected-from": "point"}
    )
    return ProjectionContext(source=scheme, point=pt, matrix=mat, moved=moved, projected=projected)


# ---------------------------------------------------------------------------
# projecting classes and membership


def _route_a_obstruction(moved_cocycle: KoszulCocycle) -> dict:
    """The (wedge containing n, var == n) coefficients of the moved
    cocycle: the contraction obstruction.  Representative-independent."""
    nv = moved_cocycle.scheme.ring.nvars
    n = nv - 1
    return {
        (wedge, var): c
        for (wedge, var), c in moved_cocycle.coeffs.items()
        if n in wedge and var == n
    }


def _route_b_holds(ctx: ProjectionContext, moved_cocycle: KoszulCocycle) -> bool:
    """Is the contracted class in the image of the projected scheme's
    cocycles (plus W-coboundaries) inside the W-subcomplex?"""
    nv = ctx.moved.ring.nvars
    n = nv - 1
    char = ctx.moved.char
    p = moved_cocycle.p
    pt_moved = ProjectivePoint.make(char, tuple([0] * n + [1]))
    gamma = contract(pt_moved, moved_cocycle)
    # layout: wedges from the first n coordinates, all nv second factors
    wedges = exterior_basis(n, p - 1)
    widx = {w: i for i, w in enumerate(wedges)}
    dim = len(wedges) * nv
    gvec = [0] * dim
    for (wedge, var), c in gamma.items():
        if any(i >= n for i in wedge):
            raise ConsistencyError("contracted wedge escaped the hyperplane")
        gvec[widx[wedge] * nv + var] = c
    if not any(gvec):
        return True
    span_rows = []
    # cocycles of the projected scheme, embedded (second factor stays < n)
    y = ctx.projected
    ymat = koszul_matrix(y, p - 1, 1)
    width = koszul_space_dim(y, p - 1, 1)
    if width:
        # kernel coordinates follow the koszul_matrix column layout:
        # wedge-major, then standard degree-1 monomials of the projection
        ymonos = y.ideal.standard_monomials(1)
        for row in kernel_basis(ymat or SparseRows([], width), char).rows:
            vec = {}
            for idx, c in row.items():
                wedge = wedges[idx // len(ymonos)]
                var = ymonos[idx % len(ymonos)].index(1)
                vec[widx[wedge] * nv + var] = c
            span_rows.append(vec)
    # W-coboundaries: differentials of pure wedges in the first n coords
    for K in exterior_basis(n, p):
        span_rows.append(
            {widx[K[:k] + K[k + 1 :]] * nv + i: removal_sign(k) for k, i in enumerate(K)}
        )
    if not span_rows:
        return False
    ok, _ = in_span(gvec, SparseRows(span_rows, dim).transpose(), char)
    return ok


@dataclass
class MembershipResult:
    member: bool
    route_a: bool
    route_b: bool
    quadric_check: bool
    point_on_scheme: bool


def syz_membership(cocycle: KoszulCocycle, point) -> MembershipResult:
    """Does the point lie on the syzygy scheme of the class?

    Computes three ways: direct evaluation of the syzygy quadrics at the
    point, the contraction-obstruction test after moving the point to the
    distinguished coordinate (route A), and the projected-class span test
    (route B).  All three must agree; disagreement raises ConsistencyError
    with enough context to replay."""
    scheme = cocycle.scheme
    pt = point if isinstance(point, ProjectivePoint) else ProjectivePoint.make(scheme.char, point)
    quads = syzygy_quadrics(cocycle)
    if not quads:
        raise InputError("membership for the zero class is trivial; rejected")
    direct = all(q.evaluate(pt.coords) == 0 for q in quads.values())
    ctx = project_scheme(scheme, pt)
    moved = transform_cocycle(cocycle, ctx.matrix, ctx.moved)
    if not moved.is_cocycle():
        raise ConsistencyError("transported cocycle failed the cocycle test")
    route_a = not _route_a_obstruction(moved)
    route_b = _route_b_holds(ctx, moved)
    if not (direct == route_a == route_b):
        raise ConsistencyError(
            "membership routes disagree: "
            f"direct={direct} route_a={route_a} route_b={route_b} "
            f"point={pt.coords} cocycle={cocycle.to_json_dict()}"
        )
    return MembershipResult(
        member=direct,
        route_a=route_a,
        route_b=route_b,
        quadric_check=direct,
        point_on_scheme=scheme.contains(pt.coords),
    )


@dataclass
class ProjectedClass:
    cocycle: KoszulCocycle  # over the projected scheme
    context: ProjectionContext
    moved_cocycle: KoszulCocycle


def project_class(cocycle: KoszulCocycle, point) -> ProjectedClass:
    """Project a linear syzygy class from a point of the scheme.

    The point must lie on the scheme (so the contraction obstruction
    vanishes for every representative) and p must be at least 2 (the
    projected class lives one wedge degree down).  The projected cocycle
    keeps the contraction sign, so its quadrics are literally a subset of
    the source syzygy quadrics in the moved coordinates."""
    scheme = cocycle.scheme
    pt = point if isinstance(point, ProjectivePoint) else ProjectivePoint.make(scheme.char, point)
    if cocycle.p < 2:
        raise InputError("projection needs wedge degree p >= 2")
    if not scheme.contains(pt.coords):
        raise InputError(f"point {pt.coords} is not on the scheme; cannot project the class")
    ctx = project_scheme(scheme, pt)
    moved = transform_cocycle(cocycle, ctx.matrix, ctx.moved)
    obstruction = _route_a_obstruction(moved)
    if obstruction:
        raise ConsistencyError(
            "contraction obstruction is nonzero for a point on the scheme; "
            f"this is a bug: {obstruction}"
        )
    n = scheme.ring.nvars - 1
    sign = removal_sign(cocycle.p - 1)
    coeffs = {}
    for (wedge, var), c in moved.coeffs.items():
        if n in wedge and var < n:
            coeffs[(wedge[:-1], var)] = sign * c % scheme.char
    beta = KoszulCocycle(ctx.projected, cocycle.p - 1, coeffs)
    if not beta.is_cocycle():
        raise ConsistencyError("projected class is not a cocycle; this is a bug")
    return ProjectedClass(cocycle=beta, context=ctx, moved_cocycle=moved)


# ---------------------------------------------------------------------------
# reconstruction from projections


@dataclass
class ReconstructionResult:
    ideal: Ideal  # sum of the cone ideals, in the source coordinates
    syzygy: SyzygySchemeResult  # the syzygy scheme of the input class
    cones: list  # (point, cone Ideal, projected KoszulCocycle)
    warnings: list = field(default_factory=list)


def reconstruct_from_projections(
    cocycle: KoszulCocycle, points
) -> ReconstructionResult:
    """Intersect the cones over the syzygy schemes of the projections of a
    class from a family of points of the scheme.

    The points must lie on the scheme and span the ambient space.  Each
    cone ideal is pulled back to the source coordinates; the intersection
    of the cones is presented by the sum of their ideals.  Projections
    whose class dies (all quadrics zero) are skipped with a warning."""
    scheme = cocycle.scheme
    char = scheme.char
    pts = [
        pt if isinstance(pt, ProjectivePoint) else ProjectivePoint.make(char, pt)
        for pt in points
    ]
    if cocycle.p < 2:
        raise InputError("reconstruction needs wedge degree p >= 2")
    for pt in pts:
        if not scheme.contains(pt.coords):
            raise InputError(f"reconstruction point {pt.coords} is not on the scheme")
    if matrix_rank([pt.coords for pt in pts], char) != scheme.ring.nvars:
        raise InputError("reconstruction points do not span the ambient space")
    syz = syzygy_scheme(cocycle)  # validates the class is nonzero
    cones = []
    warnings = []
    gens_sum = []
    last_name = scheme.ring.names[-1]
    for pt in pts:
        projected = project_class(cocycle, pt)
        quads = syzygy_quadrics(projected.cocycle)
        if not quads:
            warnings.append(
                f"projection from {pt.coords} kills the class; cone skipped"
            )
            continue
        cone_moved = Ideal(
            projected.context.projected.ring, list(quads.values())
        ).extend_ring(last_name)
        # the extended ring has the same names as the source ring
        cone_src = Ideal(scheme.ring, [
            Polynomial(scheme.ring, dict(g.terms)) for g in cone_moved.gens
        ]).change_coordinates(matrix_inverse(projected.context.matrix, char))
        cones.append((pt, cone_src, projected.cocycle))
        gens_sum.extend(cone_src.gens)
    result_ideal = Ideal(scheme.ring, gens_sum)
    return ReconstructionResult(
        ideal=result_ideal, syzygy=syz, cones=cones, warnings=warnings
    )
