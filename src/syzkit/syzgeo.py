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

- route A: contract the class at x, then transport the contraction along
  the move.  The move matrix has x as its last column, so this is the
  moved class contracted at the last coordinate point, with p - 1 wedge
  factors to transport instead of p.  The obstruction is the part of the
  contraction at variable n, and membership is its vanishing
  (equivalently: the syzygy quadrics vanish at x).  The rest of the
  contraction is the projected class.
- route B: the contracted tensor represents a class in the subcomplex
  built from the hyperplane W of forms vanishing at x; membership is that
  the class comes from the projected scheme Y, tested as a span membership
  against Y's cocycles.  These contain the W-coboundaries: those are the
  columns of delta_{p,0} of Y, and delta o delta = 0 in the pure Koszul
  complex.  Route B reads Y only in degree 2.  With S' = k[x_0..x_{n-1}],
  (I_Y)_2 = (I_moved)_2 meet S'_2, so S'_2/(I_Y)_2 embeds in
  S_2/(I_moved)_2, and Y's cocycles are the kernel of the moved scheme's
  delta_{p-1,1} restricted to the columns with wedge and variable below n.
  No elimination is run.

The two routes agree unconditionally (delta anti-commutes with the
contraction on the W-subcomplex); any disagreement raises ConsistencyError
because it can only be a bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import ConsistencyError, InputError
from .exactalg import SparseRows, in_span, kernel_basis, matrix_inverse, rank as matrix_rank
from .koszul import KoszulCocycle, exterior_basis, koszul_matrix, removal_sign
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


def _as_point(scheme: EmbeddedScheme, point) -> ProjectivePoint:
    """point as a ProjectivePoint over the scheme's field."""
    return point if isinstance(point, ProjectivePoint) else ProjectivePoint.make(scheme.char, point)


def contract(point: ProjectivePoint, cocycle: KoszulCocycle) -> dict:
    """Contraction of the first tensor factor against the evaluation
    functional of the point: { (wedge minus i, var): coeff } summed with
    the removal signs.  Returned as a plain coefficient dict on
    Lambda^{p-1} V (x) V, reduced and without zero coefficients."""
    out: dict = {}
    for (wedge, var), c in cocycle.coeffs.items():
        for k, i in enumerate(wedge):
            if a := point.coords[i]:
                key = (wedge[:k] + wedge[k + 1 :], var)
                out[key] = out.get(key, 0) + removal_sign(k) * a * c
    char = cocycle.scheme.char
    return {key: r for key, v in out.items() if (r := v % char)}


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
    in order, values Polynomials over the cocycle's cached
    `KoszulCocycle.quadric_terms`; zero quadrics are omitted."""
    ring = cocycle.scheme.ring
    return {J: Polynomial(ring, terms) for J, terms in cocycle.quadric_terms.items()}


def syzygy_scheme(cocycle: KoszulCocycle) -> SyzygySchemeResult:
    """The common zero scheme of the quadrics attached to a nonzero linear
    syzygy class.

    Rejects representatives of the zero class (their quadrics all vanish,
    which would make the syzygy scheme the ambient space): by exactness of
    the pure Koszul complex these are exactly the coboundaries, so the
    extraction map itself is the test.  Also checks the cocycle condition,
    which says every extracted quadric lies in I(X)_2: the e_J entry of
    delta(alpha) is the normal form of the quadric at J."""
    source = cocycle.scheme
    quads = syzygy_quadrics(cocycle)
    if not quads:
        raise InputError(
            "the syzygy scheme of the zero class is the ambient space by "
            "convention; rejected"
        )
    if not cocycle.is_cocycle():
        raise InputError(
            "input is not a cocycle: an extracted quadric is not in the scheme's ideal"
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


def _transport(coeffs: dict, a: list, char: int) -> dict:
    """Coefficients {(wedge, var): c} of a tensor in Lambda^r V (x) V, as
    integers, carried along the substitution x_i -> sum_j a[i][j] x_j with
    a given as reduced int rows: each wedge factor by the minors of a, the
    last factor linearly.  Not reduced; zero sums are kept."""
    nv = len(a)
    out: dict = {}
    minor_cache: dict = {}
    for (wedge, var), c in coeffs.items():
        minors = minor_cache.get(wedge)
        if minors is None:
            minors = minor_cache[wedge] = _wedge_minors(a, wedge, char)
        for K, d in minors.items():
            for l in range(nv):
                if al := a[var][l]:
                    out[K, l] = out.get((K, l), 0) + c * d * al
    return out


def transform_cocycle(
    cocycle: KoszulCocycle, matrix, target: EmbeddedScheme
) -> KoszulCocycle:
    """Transport a cocycle along the substitution x_i -> sum_j m[i][j] x_j.

    Wedge factors transform by minors of the matrix, the last factor
    linearly (`_transport`); the result is a cocycle for the transformed
    scheme.  Membership and class projection transport the contraction
    instead; tests use this as their reference."""
    char = cocycle.scheme.char
    a = [[int(v) % char for v in row] for row in matrix]
    return KoszulCocycle(target, cocycle.p, _transport(cocycle.coeffs, a, char))


@dataclass
class ProjectionContext:
    """Everything attached to projecting a scheme from a point.  `moved`
    has the point at the last coordinate point; `point_on_scheme` says
    whether the point lies on the source; `projected`, the exact
    elimination ideal of `moved` (the closure of the image), is computed
    by block-order Buchberger when first read.  Membership and class
    projection read only its degree-2 part, which `moved` holds."""

    source: EmbeddedScheme
    point: ProjectivePoint
    matrix: list
    moved: EmbeddedScheme
    point_on_scheme: bool

    @cached_property
    def projected(self) -> EmbeddedScheme:
        n = self.moved.ring.nvars - 1
        # the elimination ideal carries its DRL basis; the scheme checks homogeneity
        return EmbeddedScheme(
            self.moved.ideal.eliminate((n,)),
            labels={**self.source.labels, "projected-from": "point"},
        )


def project_scheme(scheme: EmbeddedScheme, point) -> ProjectionContext:
    """Project a scheme from an ambient point: move the point last.  The
    projection, the elimination of the last variable, is left to the first
    read of `ProjectionContext.projected`."""
    pt = _as_point(scheme, point)
    if len(pt.coords) != scheme.ring.nvars:
        raise InputError("point has wrong coordinate count for the ambient space")
    on_scheme = scheme.contains(pt.coords)
    if on_scheme and scheme.hilbert_data().dimension == 0:
        raise InputError("cannot project a zero-dimensional scheme from itself")
    mat = move_point_matrix(pt)
    moved = scheme.change_coordinates(mat, {**scheme.labels, "moved-point": "last-coordinate"})
    return ProjectionContext(
        source=scheme, point=pt, matrix=mat, moved=moved, point_on_scheme=on_scheme
    )


# ---------------------------------------------------------------------------
# projecting classes and membership


def _moved_contraction(ctx: ProjectionContext, cocycle: KoszulCocycle) -> dict:
    """gamma, the moved class contracted at the last coordinate point, as
    a reduced coefficient dict on Lambda^{p-1} V (x) V.  The move matrix
    has the point as its last column, so this is the contraction at the
    point, transported: p - 1 wedge factors move, not p."""
    char = ctx.moved.char
    moved = _transport(contract(ctx.point, cocycle), ctx.matrix, char)
    return {key: r for key, v in moved.items() if (r := v % char)}


def _projected_cocycles(ctx: ProjectionContext, p: int) -> SparseRows:
    """ker delta_{p-1,1}(Y) of the projection Y, one row per basis vector,
    read off the moved scheme (module docstring): the kernel of the moved
    delta_{p-1,1} on the columns (wedge, var) with wedge and var below n.
    None of these schemes holds a linear form, so S_1 is V and a column
    sits at wedge_index * nvars + var; the kept columns come in Y's own
    order, so the rows are Y's canonical kernel basis, embedded."""
    nv = ctx.moved.ring.nvars
    n = nv - 1
    wedges = exterior_basis(nv, p - 1)
    cols = [i * nv + var for i, wedge in enumerate(wedges) if n not in wedge for var in range(n)]
    rows = [
        {j: v for j, c in enumerate(cols) if (v := row[c])}
        for row in koszul_matrix(ctx.moved, p - 1, 1)
    ]
    kernel = kernel_basis(SparseRows(rows, len(cols)), ctx.moved.char)
    return SparseRows(
        [{cols[j]: c for j, c in row.items()} for row in kernel.rows], len(wedges) * nv
    )


def _route_b_holds(ctx: ProjectionContext, gamma: dict, p: int) -> bool:
    """Does gamma, the moved class contracted at the last coordinate point,
    come from the projected scheme Y?  That is its span membership in Y's
    cocycles, which contain the W-coboundaries, the columns of
    delta_{p,0}(Y), since delta o delta = 0 in the pure Koszul complex."""
    if not gamma:
        return True
    nv = ctx.moved.ring.nvars
    widx = {w: i for i, w in enumerate(exterior_basis(nv, p - 1))}
    vec = {widx[wedge] * nv + var: c for (wedge, var), c in gamma.items()}
    return in_span(vec, _projected_cocycles(ctx, p).transpose(), ctx.moved.char)


@dataclass
class MembershipResult:
    member: bool
    point_on_scheme: bool


def syz_membership(cocycle: KoszulCocycle, point) -> MembershipResult:
    """Does the point lie on the syzygy scheme of the class?

    Computes three ways: direct evaluation of the syzygy quadrics at the
    point, the contraction-obstruction test on gamma, the contraction at
    the point transported to the moved scheme (route A), and the
    projected-class span test (route B).  All three must agree;
    disagreement raises ConsistencyError with enough context to replay.
    For p >= 2 gamma must also be a cocycle on the moved scheme, since
    delta anti-commutes with the contraction; for p = 1 it lies in
    Lambda^0 V (x) V, where delta is zero, and the agreement of the
    direct route with route A checks the transport."""
    scheme = cocycle.scheme
    pt = _as_point(scheme, point)
    quads = syzygy_quadrics(cocycle)
    if not quads:
        raise InputError("membership for the zero class is trivial; rejected")
    direct = all(q.evaluate(pt.coords) == 0 for q in quads.values())
    ctx = project_scheme(scheme, pt)
    gamma = _moved_contraction(ctx, cocycle)
    if cocycle.p >= 2 and not KoszulCocycle(ctx.moved, cocycle.p - 1, gamma).is_cocycle():
        raise ConsistencyError("transported contraction failed the cocycle test")
    n = scheme.ring.nvars - 1
    # the obstruction is gamma's part at var == n
    route_a = all(var != n for _, var in gamma)
    route_b = _route_b_holds(ctx, gamma, cocycle.p)
    if not (direct == route_a == route_b):
        raise ConsistencyError(
            "membership routes disagree: "
            f"direct={direct} route_a={route_a} route_b={route_b} "
            f"point={pt.coords} cocycle={cocycle.to_json_dict()}"
        )
    return MembershipResult(member=direct, point_on_scheme=ctx.point_on_scheme)


@dataclass
class ProjectedClass:
    gamma: KoszulCocycle  # the contraction, as a (p-1)-tensor on the moved scheme
    context: ProjectionContext

    @cached_property
    def cocycle(self) -> KoszulCocycle:
        """The class over the projected scheme: gamma's coefficients, read
        there.  Reading it eliminates (`ProjectionContext.projected`)."""
        return KoszulCocycle(self.context.projected, self.gamma.p, self.gamma.coeffs)


def project_class(cocycle: KoszulCocycle, point) -> ProjectedClass:
    """Project a linear syzygy class from a point of the scheme.

    The point must lie on the scheme (so the contraction obstruction
    vanishes for every representative) and p must be at least 2 (the
    projected class lives one wedge degree down).  The projected cocycle
    keeps the contraction sign, so its quadrics are literally a subset of
    the source syzygy quadrics in the moved coordinates: it is the
    contraction of the moved class at the last coordinate point, computed
    as the contraction at the point, transported.  Its cocycle condition
    is tested on the moved scheme: delta of it lies in
    Lambda^{p-2} V' (x) S'_2, and S'_2/(I_Y)_2 embeds in S_2/(I_moved)_2."""
    scheme = cocycle.scheme
    pt = _as_point(scheme, point)
    if cocycle.p < 2:
        raise InputError("projection needs wedge degree p >= 2")
    if not scheme.contains(pt.coords):
        raise InputError(f"point {pt.coords} is not on the scheme; cannot project the class")
    ctx = project_scheme(scheme, pt)
    gamma = _moved_contraction(ctx, cocycle)
    n = scheme.ring.nvars - 1
    obstruction = {key: c for key, c in gamma.items() if key[1] == n}
    if obstruction:
        raise ConsistencyError(
            "contraction obstruction is nonzero for a point on the scheme; "
            f"this is a bug: {obstruction}"
        )
    beta = KoszulCocycle(ctx.moved, cocycle.p - 1, gamma)
    if not beta.is_cocycle():
        raise ConsistencyError("projected class is not a cocycle; this is a bug")
    return ProjectedClass(gamma=beta, context=ctx)


# ---------------------------------------------------------------------------
# reconstruction from projections


@dataclass
class ReconstructionResult:
    ideal: Ideal  # sum of the cone ideals, in the source coordinates
    syzygy: SyzygySchemeResult  # the syzygy scheme of the input class
    cones: list  # (point, cone Ideal, ProjectedClass)
    warnings: list = field(default_factory=list)


def reconstruct_from_projections(
    cocycle: KoszulCocycle, points
) -> ReconstructionResult:
    """Intersect the cones over the syzygy schemes of the projections of a
    class from a family of points of the scheme.

    The points must lie on the scheme and span the ambient space.  A cone
    is cut out by the projected class's quadrics, which are free of x_n:
    they are the quadrics of gamma on the moved scheme, term for term.  Each
    cone ideal is pulled back to the source coordinates; the intersection
    of the cones is presented by the sum of their ideals.  Projections
    whose class dies (all quadrics zero) are skipped with a warning."""
    scheme = cocycle.scheme
    char = scheme.char
    pts = [_as_point(scheme, pt) for pt in points]
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
    for pt in pts:
        projected = project_class(cocycle, pt)
        quads = syzygy_quadrics(projected.gamma)
        if not quads:
            warnings.append(
                f"projection from {pt.coords} kills the class; cone skipped"
            )
            continue
        cone_src = Ideal(scheme.ring, list(quads.values())).change_coordinates(
            matrix_inverse(projected.context.matrix, char)
        )
        cones.append((pt, cone_src, projected))
        gens_sum.extend(cone_src.gens)
    result_ideal = Ideal(scheme.ring, gens_sum)
    return ReconstructionResult(
        ideal=result_ideal, syzygy=syz, cones=cones, warnings=warnings
    )
