"""Command-line front end: the `syz` command.

Subcommands
-----------
betti        Betti table of a scheme (text grid or JSON report)
cocycles     canonical basis of a (p,1) Koszul cohomology strand
syzscheme    syzygy scheme of a linear-strand class (ideal text out)
project      project a scheme (and optionally a class) from a point
reconstruct  intersect the cones over projections from sampled points
resolve      minimal free resolution (independent of the Koszul route)
build        construct a scheme from a recipe and summarize it
verify       run a named verification suite

Scheme sources are either paths to ideal files (the plain-text format of
polyring) or builder recipes:

    rnc 3
    scroll 2 1
    ci 2 3 seed=7
    plane-model file=quintic.txt adjoints=2 node=0,0,1 cutoff=3

Exit codes: 0 success, 1 a verification suite found a divergent case,
2 bad input or usage.  Internal cross-check failures (two routes of this
package disagreeing) raise ConsistencyError and crash loudly on purpose.

All randomness flows from --seed (default 0); per-case generators are
derived from (seed, case id), so a single case replays identically no
matter which other cases run.  JSON reports are deterministic for fixed
inputs and seed except for the segregated "timings" subtree, and they
validate against the schema shipped at syzkit/schemas/report.schema.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from functools import cache, partial
from numbers import Integral

from . import __version__
from .builders import (
    PlaneModel,
    adjoint_system,
    complete_intersection,
    en_betti,
    implicitize_eliminate,
    implicitize_kernel,
    model_image,
    nodal_quintic,
    quadric_hull,
    rational_normal_curve,
    sample_points,
    scroll,
    scroll_types,
    seeded_rng,
    validate_plane_model,
)
from .errors import BudgetError, InputError
from .exactalg import DEFAULT_CHAR, FieldSpec, rank as matrix_rank
from .koszul import (
    DEFAULT_ENTRY_BUDGET,
    KoszulCocycle,
    betti_table,
    k_p1_cocycle_basis,
    koszul_dim,
    linear_strand_dim_from_ideal,
    minimal_free_resolution,
)
from .polyring import (
    EmbeddedScheme,
    Ideal,
    format_ideal_text,
    parse_ideal_text,
)
from .syzgeo import (
    ProjectivePoint,
    project_class,
    project_scheme,
    reconstruct_from_projections,
    syz_membership,
    syzygy_scheme,
)

REPORT_SCHEMA_ID = "syzkit-report/1"

_SCROLL_ASSUMPTION = (
    "scrolls and rational normal curves are linearly normal and "
    "projectively normal by construction; not re-verified"
)

# standing assumptions recorded in reports, keyed by scheme kind
_ASSUMPTIONS = {
    "scroll": _SCROLL_ASSUMPTION,
    "rnc": _SCROLL_ASSUMPTION,
    "ci": (
        "complete-intersection draws assert Hilbert dimension and degree; "
        "smoothness is not certified"
    ),
    "plane-model-image": (
        "plane-model images: nodality of the model is validated exactly; "
        "the implicitization cutoff is certified one degree past the last "
        "generator"
    ),
    "quadric-hull": "quadric hull built from the degree-2 graded piece only",
    "file": (
        "ideal file input: homogeneity and nondegeneracy checked at load; "
        "linear normality assumed, not verified"
    ),
}


# ---------------------------------------------------------------------------
# shared run context and report plumbing


@dataclass
class RunContext:
    command: str
    argv: list
    char: int
    seed: int
    json_out: bool
    entry_budget: int | None
    t0: float = field(default_factory=time.time)
    inputs: list = field(default_factory=list)
    assumptions: set = field(default_factory=set)
    warnings: list = field(default_factory=list)
    case_timings: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)

    def note_input(self, source: str, text: str):
        entry = {"source": source, "sha256": hashlib.sha256(text.encode()).hexdigest()}
        if entry not in self.inputs:
            self.inputs.append(entry)

    def cached(self, key, build):
        """build(), once per key: cases that share an instance reuse it."""
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]

    def assume(self, kind: str):
        if kind in _ASSUMPTIONS:
            self.assumptions.add(_ASSUMPTIONS[kind])

    def report(self, payload: dict) -> dict:
        return {
            "schema": REPORT_SCHEMA_ID,
            "tool": {"name": "syzkit", "version": __version__},
            "command": self.command,
            "argv": list(self.argv),
            "field_char": self.char,
            "seed": self.seed,
            "inputs": list(self.inputs),
            "assumptions": sorted(self.assumptions),
            "warnings": list(self.warnings),
            "payload": payload,
            "timings": {
                "total_s": round(time.time() - self.t0, 6),
                "cases": {k: round(v, 6) for k, v in sorted(self.case_timings.items())},
            },
        }


def _emit(ctx: RunContext, payload: dict, lines: list) -> None:
    """Print the JSON report under --json, else the text lines."""
    if ctx.json_out:
        print(json.dumps(ctx.report(payload), indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


def _context(args, argv) -> RunContext:
    char = args.field_char if args.field_char is not None else DEFAULT_CHAR
    FieldSpec(char)  # a bad --field-char fails here, before any work starts
    return RunContext(
        command=args.command,
        argv=argv,
        char=char,
        seed=args.seed,
        json_out=args.json,
        entry_budget=args.entry_budget,
    )


# ---------------------------------------------------------------------------
# sources: ideal files and builder recipes


def _parse_point(text: str, char: int) -> ProjectivePoint:
    try:
        coords = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"bad point {text!r}; expected comma-separated integers") from None
    return ProjectivePoint.make(char, coords)


# option keys each recipe kind takes, mapped to whether the key may repeat
_RECIPE_OPTIONS = {
    "rnc": {},
    "scroll": {},
    "ci": {"seed": False},
    "plane-model": {"file": False, "adjoints": False, "cutoff": False, "node": True},
}


def _split_recipe(text: str):
    tokens = text.split()
    if not tokens:
        raise InputError("empty recipe")
    kind, positional, options = tokens[0], [], {}
    if kind not in _RECIPE_OPTIONS:
        raise InputError(
            f"unknown recipe kind {kind!r}; expected one of {sorted(_RECIPE_OPTIONS)}"
        )
    allowed = _RECIPE_OPTIONS[kind]
    for tok in tokens[1:]:
        if "=" not in tok:
            positional.append(tok)
            continue
        key, value = tok.split("=", 1)
        if key not in allowed:
            raise InputError(
                f"{kind} recipe does not take {key}=; it takes "
                f"{', '.join(k + '=' for k in allowed) or 'no options'}"
            )
        if key in options and not allowed[key]:
            raise InputError(f"{kind} recipe takes {key}= at most once")
        options.setdefault(key, []).append(value)
    return kind, positional, options


def _ints(values, what: str) -> list:
    try:
        return [int(v) for v in values]
    except ValueError:
        raise InputError(f"{what} must be integers, got {values}") from None


def _read_ideal(path: str, ctx: RunContext) -> Ideal:
    """The ideal in a text file, noted as an input.  Its field becomes the
    run's field unless --field-char names another."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    ctx.note_input(path, text)
    ideal = parse_ideal_text(text)
    if ideal.ring.char != ctx.char:
        if any(a.startswith("--field-char") for a in ctx.argv):
            raise InputError(
                f"file {path} declares field {ideal.ring.char} but "
                f"--field-char {ctx.char} was given"
            )
        ctx.char = ideal.ring.char
    return ideal


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _build_plane_model(positional: list, options: dict, ctx: RunContext):
    if positional or "file" not in options:
        raise InputError(
            "plane-model recipe takes only options, and needs "
            "file=<ideal file with one generator>"
        )
    path = options["file"][0]
    ideal = _read_ideal(path, ctx)
    if ideal.ring.nvars != 3 or len(ideal.gens) != 1:
        raise InputError(
            "plane-model file must define exactly one generator in three variables"
        )
    nodes = [_parse_point(v, ctx.char) for v in options.get("node", [])]
    model = PlaneModel(curve=ideal.gens[0], nodes=nodes)
    validate_plane_model(model)
    degree = _ints(options.get("adjoints", ["2"]), "adjoints")[0]
    cutoff = _ints(options.get("cutoff", ["3"]), "cutoff")[0]
    forms = adjoint_system(model, degree)
    labels = {
        "kind": "plane-model-image",
        "file": path,
        "adjoints": degree,
        "nodes": [n.coords for n in nodes],
    }
    return model_image(model, forms, max_degree=cutoff, labels=labels)


def build_recipe(text: str, ctx: RunContext) -> EmbeddedScheme:
    """Construct a scheme from a recipe string (see module docstring)."""
    kind, positional, options = _split_recipe(text)
    if kind != "plane-model":
        ctx.note_input(f"recipe: {text}", text)
    if kind == "rnc":
        values = _ints(positional, "rnc degree")
        if len(values) != 1:
            raise InputError("rnc recipe takes exactly one degree")
        scheme = rational_normal_curve(values[0], ctx.char)
    elif kind == "scroll":
        e = _ints(positional, "scroll type")
        scheme = scroll(tuple(e), ctx.char)
    elif kind == "ci":
        degrees = _ints(positional, "ci degrees")
        seed = _ints(options.get("seed", [str(ctx.seed)]), "seed")[0]
        if seed < 0:
            raise InputError(f"ci recipe seed must be at least 0, got {seed}")
        scheme = complete_intersection(tuple(degrees), ctx.char, seed=seed)
    else:
        scheme = _build_plane_model(positional, options, ctx)
    ctx.assume(scheme.labels.get("kind", "file"))
    return scheme


def load_scheme(source: str, ctx: RunContext) -> EmbeddedScheme:
    """A scheme from an ideal file path or a builder recipe string."""
    if os.path.exists(source):
        ideal = _read_ideal(source, ctx)
        ctx.assume("file")
        return EmbeddedScheme(ideal, labels={"kind": "file", "path": source})
    return build_recipe(source, ctx)


# ---------------------------------------------------------------------------
# class selection


def _combine(basis, coeffs, char):
    alpha = basis[0].scale(coeffs[0] % char)
    for b, c in zip(basis[1:], coeffs[1:]):
        alpha = alpha.add(b.scale(c % char))
    if not alpha.coeffs:
        raise InputError("the requested combination is the zero class")
    return alpha


def select_class(scheme: EmbeddedScheme, args, ctx: RunContext) -> KoszulCocycle:
    """The linear-strand class named by --class-file / --p / --class-*."""
    if args.class_file:
        try:
            with open(args.class_file) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read class file {args.class_file}: {exc}") from None
        ctx.note_input(args.class_file, json.dumps(data, sort_keys=True))
        cocycle = KoszulCocycle.from_json_dict(scheme, data)
        if args.p is not None and args.p != cocycle.p:
            raise InputError(
                f"--p {args.p} disagrees with the class file (p = {cocycle.p})"
            )
        return cocycle
    if args.p is None:
        raise InputError("choose a class: --p (with --class-index/--class-coeffs) or --class-file")
    basis = k_p1_cocycle_basis(scheme, args.p, ctx.entry_budget)
    if not basis:
        raise InputError(f"the ({args.p},1) strand of this scheme is zero")
    if args.class_coeffs:
        coeffs = _ints(args.class_coeffs.split(","), "--class-coeffs")
        if len(coeffs) != len(basis):
            raise InputError(
                f"--class-coeffs needs {len(basis)} entries (strand dimension), "
                f"got {len(coeffs)}"
            )
        return _combine(basis, coeffs, scheme.char)
    if not 0 <= args.class_index < len(basis):
        raise InputError(
            f"--class-index {args.class_index} out of range; the ({args.p},1) "
            f"strand has dimension {len(basis)}"
        )
    return basis[args.class_index]


def _random_class(basis, rng) -> KoszulCocycle:
    char = basis[0].scheme.char
    while True:
        coeffs = [int(c) for c in rng.integers(0, char, size=len(basis))]
        if any(coeffs):
            return _combine(basis, coeffs, char)


def _case_rng(seed: int, case_id: str):
    return seeded_rng([seed & 0xFFFFFFFF, *case_id.encode()])


def _pick_class(basis, k: int, ctx: RunContext, cid: str) -> KoszulCocycle:
    """Basis element k, or past the basis a random combination drawn for
    the case."""
    if k < len(basis):
        return basis[k]
    return _random_class(basis, _case_rng(ctx.seed, cid))


# ---------------------------------------------------------------------------
# shared serialization helpers


def _ideal_json(ideal: Ideal) -> dict:
    return {
        "field": ideal.ring.char,
        "ring": list(ideal.ring.names),
        "generators": [str(g) for g in ideal.gens],
    }


def _grid_json(entries: dict) -> dict:
    return {f"{p},{q}": v for (p, q), v in sorted(entries.items()) if v}


def _scheme_summary(scheme: EmbeddedScheme) -> dict:
    hd = scheme.ideal.hilbert_data()
    by_degree: dict = {}
    for g in scheme.ideal.gens:
        by_degree[g.degree()] = by_degree.get(g.degree(), 0) + 1
    return {
        "labels": {k: _jsonable(v) for k, v in sorted(scheme.labels.items())},
        "ring": list(scheme.ring.names),
        "field": scheme.char,
        "hilbert": {"dimension": hd.dimension, "degree": hd.degree},
        "generators_by_degree": {str(d): n for d, n in sorted(by_degree.items())},
    }


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, Integral) and not isinstance(v, bool):
        return int(v)
    return v


# ---------------------------------------------------------------------------
# plain computation commands


def cmd_betti(args, ctx: RunContext) -> int:
    scheme = load_scheme(args.source, ctx)
    pmax = args.pmax if args.pmax is not None else scheme.ring.nvars - 1
    qmax = args.qmax if args.qmax is not None else 3
    table = betti_table(scheme, pmax, qmax, ctx.entry_budget)
    payload = {"scheme": _scheme_summary(scheme), "table": table.to_json_dict()}
    _emit(ctx, payload, [f"# source: {args.source}", f"# field: {ctx.char}", table.text()])
    return 0


def cmd_cocycles(args, ctx: RunContext) -> int:
    scheme = load_scheme(args.source, ctx)
    basis = k_p1_cocycle_basis(scheme, args.p, ctx.entry_budget)
    payload = {
        "scheme": _scheme_summary(scheme),
        "p": args.p,
        "dimension": len(basis),
        "classes": [c.to_json_dict() for c in basis],
    }
    _emit(ctx, payload, [
        f"# source: {args.source}",
        f"dim K_({args.p},1) = {len(basis)}",
        *(json.dumps(c.to_json_dict(), sort_keys=True) for c in basis),
    ])
    return 0


def cmd_syzscheme(args, ctx: RunContext) -> int:
    scheme = load_scheme(args.source, ctx)
    cocycle = select_class(scheme, args, ctx)
    result = syzygy_scheme(cocycle)
    hd = result.scheme.ideal.hilbert_data()
    comments = [
        f"syzygy scheme of a ({cocycle.p},1) class on: {args.source}",
        f"class: {json.dumps(cocycle.to_json_dict(), sort_keys=True)}",
        f"hilbert dimension {hd.dimension}, degree {hd.degree}",
    ]
    text = format_ideal_text(result.scheme.ideal, comments)
    payload = {
        "scheme": _scheme_summary(scheme),
        "class": cocycle.to_json_dict(),
        "syzygy_scheme": {
            "ideal": _ideal_json(result.scheme.ideal),
            "hilbert": {"dimension": hd.dimension, "degree": hd.degree},
            "quadrics": len(result.scheme.ideal.gens),
        },
    }
    if args.out:
        _write_text(args.out, text)
    _emit(ctx, payload, [f"wrote {args.out}" if args.out else text.rstrip("\n")])
    return 0


def cmd_project(args, ctx: RunContext) -> int:
    scheme = load_scheme(args.source, ctx)
    point = _parse_point(args.point, ctx.char)
    class_payload = None
    if args.p is not None or args.class_file:
        cocycle = select_class(scheme, args, ctx)
        projected = project_class(cocycle, point)
        context = projected.context
        survived = bool(projected.cocycle.coeffs)
        class_payload = {
            "class": cocycle.to_json_dict(),
            "projected_class": projected.cocycle.to_json_dict(),
            "survived": survived,
        }
        if not survived:
            ctx.warnings.append(
                f"projection from {point.coords} kills the class"
            )
    else:
        context = project_scheme(scheme, point)
    hd = context.projected.ideal.hilbert_data()
    payload = {
        "scheme": _scheme_summary(scheme),
        "point": list(point.coords),
        "projected": {
            "ideal": _ideal_json(context.projected.ideal),
            "hilbert": {"dimension": hd.dimension, "degree": hd.degree},
        },
    }
    lines = [
        f"# projection of {args.source} from {point.coords}",
        format_ideal_text(
            context.projected.ideal,
            [f"projected scheme: hilbert dimension {hd.dimension}, degree {hd.degree}"],
        ).rstrip("\n"),
    ]
    if class_payload:
        payload.update(class_payload)
        lines.append(f"# projected class survived: {class_payload['survived']}")
        lines.append(json.dumps(class_payload["projected_class"], sort_keys=True))
    _emit(ctx, payload, lines)
    return 0


def _spanning_points(scheme: EmbeddedScheme, count: int, seed: int, ctx: RunContext):
    """Distinct points on the scheme whose coordinates span the ambient
    space: at least nvars of them, and more (with a warning) if a draw is
    degenerate.  A count below nvars is raised to it with a warning."""
    nv = scheme.ring.nvars
    if count < nv:
        ctx.warnings.append(
            f"{count} point(s) cannot span P^{nv - 1}; sampling {nv} points instead"
        )
    want = max(count, nv)
    for attempt in range(3):
        pts = sample_points(scheme, want + attempt * nv, seed + attempt)
        if matrix_rank([p.coords for p in pts], scheme.char) == nv:
            if attempt:
                ctx.warnings.append(
                    f"point sample extended {attempt} time(s) to reach a spanning set"
                )
            return pts[: want + attempt * nv]
    raise InputError(
        f"could not draw a spanning set of {want} points on the scheme "
        f"(seed {seed}); is it degenerate?"
    )


def _cones_inside(result) -> bool:
    """Whether every cone of a reconstruction contains the syzygy scheme."""
    syz = result.syzygy.scheme.ideal
    return all(syz.contains_ideal(cone) for _, cone, _ in result.cones)


def _reconstruct(cocycle: KoszulCocycle, points):
    """Reconstruct the syzygy scheme of a class from its projections:
    (result, saturated reconstruction, whether it equals the saturated
    syzygy scheme, whether every cone contains the syzygy scheme)."""
    result = reconstruct_from_projections(cocycle, points)
    rec_sat = result.ideal.saturate_irrelevant()
    equal = rec_sat.same_ideal(result.syzygy.scheme.ideal.saturate_irrelevant())
    return result, rec_sat, equal, _cones_inside(result)


def cmd_reconstruct(args, ctx: RunContext) -> int:
    scheme = load_scheme(args.source, ctx)
    cocycle = select_class(scheme, args, ctx)
    if args.point:
        points = [_parse_point(t, ctx.char) for t in args.point]
    else:
        count = args.points if args.points is not None else scheme.ring.nvars
        points = _spanning_points(scheme, count, ctx.seed, ctx)
    result, rec_sat, equal, inclusions = _reconstruct(cocycle, points)
    ctx.warnings.extend(result.warnings)
    payload = {
        "scheme": _scheme_summary(scheme),
        "class": cocycle.to_json_dict(),
        "points": [list(p.coords) for p in points],
        "cones": len(result.cones),
        "equal_to_syzygy_scheme": equal,
        "every_cone_contains_syzygy_scheme": inclusions,
        "reconstruction": _ideal_json(rec_sat),
    }
    _emit(ctx, payload, [
        f"# reconstruction of the syzygy scheme on: {args.source}",
        f"points used: {len(points)}; cones intersected: {len(result.cones)}",
        *(f"warning: {w}" for w in ctx.warnings),
        f"equal to the syzygy scheme (after saturation): {equal}",
        f"every cone contains the syzygy scheme: {inclusions}",
    ])
    return 0


def cmd_resolve(args, ctx: RunContext) -> int:
    scheme = load_scheme(args.source, ctx)
    res = minimal_free_resolution(
        scheme.ideal, degree_bound=args.degree_bound, length_bound=args.length_bound
    )
    graded = res.graded_betti()
    payload = {
        "scheme": _scheme_summary(scheme),
        "modules": [sorted(m) for m in res.modules],
        "graded_betti": {f"{s},{d}": n for (s, d), n in sorted(graded.items())},
        "strand": _grid_json({(s, d - s): n for (s, d), n in graded.items()}),
        "length": res.length(),
        "truncated": res.truncated,
    }
    _emit(ctx, payload, [
        f"# minimal free resolution of: {args.source}",
        *(f"F_{s}: rank {len(degs)}, generator degrees {sorted(degs)}"
          for s, degs in enumerate(res.modules)),
        f"length {res.length()}, truncated: {res.truncated}",
    ])
    return 0


def cmd_build(args, ctx: RunContext) -> int:
    scheme = load_scheme(args.source, ctx)
    summary = _scheme_summary(scheme)
    payload = {"scheme": summary, "ideal": _ideal_json(scheme.ideal)}
    if args.out:
        comments = [f"built from: {args.source}", f"labels: {json.dumps(summary['labels'], sort_keys=True)}"]
        _write_text(args.out, format_ideal_text(scheme.ideal, comments))
    hd = summary["hilbert"]
    _emit(ctx, payload, [
        f"# built: {args.source}",
        *(f"{k}: {v}" for k, v in summary["labels"].items()),
        f"ambient: P^{scheme.ring.nvars - 1} over F_{scheme.char}",
        f"hilbert dimension {hd['dimension']}, degree {hd['degree']}",
        f"generators by degree: {summary['generators_by_degree']}",
        *([f"wrote {args.out}"] if args.out else []),
    ])
    return 0


# ---------------------------------------------------------------------------
# verification suites


@dataclass
class CaseResult:
    status: str  # PASS / FAIL / SKIP
    detail: str
    expected: object = None
    computed: object = None
    warnings: list = field(default_factory=list)


@dataclass
class Case:
    id: str
    run: object  # () -> CaseResult


def _check(condition: bool, expected, computed, ok_detail: str, fail_detail: str,
           warnings=None) -> CaseResult:
    return CaseResult(
        status="PASS" if condition else "FAIL",
        detail=ok_detail if condition else fail_detail,
        expected=expected,
        computed=computed,
        warnings=list(warnings or []),
    )


def _numbered(prefix: str, count: int, run) -> list:
    """Cases prefix-00, prefix-01, ... for k < count, each running
    run(case id, k)."""
    ids = [f"{prefix}-{k:02d}" for k in range(count)]
    return [Case(cid, partial(run, cid, k)) for k, cid in enumerate(ids)]


# Instances shared by the suites that have a recipe, by name.  A suite's
# other instances (scroll types, the complete intersections, the nodal
# quintic images) are built in code from their names.
_RECIPES = {
    "rnc-3": "rnc 3",
    "rnc-4": "rnc 4",
    "scroll-1-2": "scroll 1 2",
    "scroll-2-2": "scroll 2 2",
}

# Images of the nodal quintics drawn from --seed under their adjoint
# conics: name -> (nodes, the nodes the conics pass through (None: all),
# labels).  trigonal-g5 is a trigonal curve of genus 5 in P^4.
_QUINTIC_IMAGES = {
    "trigonal-g5": (1, None, {"model": "1-nodal quintic", "genus": 5}),
    "genus4": (2, None, {"model": "2-nodal quintic", "genus": 4}),
    "nodal-d": (2, [0], {"model": "2-nodal quintic, one-node adjoints"}),
}


def _quintic_image(name: str, ctx: RunContext):
    """(model, adjoint conics, image) of a named nodal-quintic image; each
    quintic is drawn once per run."""
    nodes, through, labels = _QUINTIC_IMAGES[name]

    def build():
        model = ctx.cached(
            ("nodal-quintic", nodes), lambda: nodal_quintic(nodes, ctx.char, seed=ctx.seed)
        )
        forms = adjoint_system(model, 2, through=through)
        image = model_image(model, forms, labels={"kind": "plane-model-image", **labels})
        return model, forms, image

    ctx.assume("plane-model-image")
    return ctx.cached(name, build)


def _strand_instance(name: str, recipe, ctx: RunContext):
    """(scheme, p, canonical basis of its (p,1) strand) for an instance:
    the top strand p = f - 1 of a degree-f scroll, or p = 2 on the
    trigonal curve, which has no recipe."""
    if recipe is None:
        scheme, p = _quintic_image(name, ctx)[2], 2
    else:
        scheme = ctx.cached(("recipe", recipe), lambda: build_recipe(recipe, ctx))
        if scheme.labels.get("kind") not in ("scroll", "rnc"):
            raise InputError("this suite needs scroll-type instances (pass a scroll/rnc recipe)")
        p = sum(scheme.labels["type"]) - 1
    basis = k_p1_cocycle_basis(scheme, p, ctx.entry_budget) if p >= 1 else []
    if not basis:
        raise InputError(f"the ({p},1) strand of {name} is zero; there is no class to verify")
    return scheme, p, basis


def _sampled_spanning(scheme: EmbeddedScheme, count: int, rng, warnings: list):
    """`count` (at least nvars) points on the scheme spanning the ambient
    space, or None after three widening attempts."""
    count = max(count, scheme.ring.nvars)
    for attempt in range(3):
        candidate = sample_points(scheme, count + attempt, int(rng.integers(1 << 30)))
        if matrix_rank([pt.coords for pt in candidate], scheme.char) == scheme.ring.nvars:
            if attempt:
                warnings.append(f"extended the sample {attempt} time(s) to span")
            return candidate
    return None


def _scroll_case(ctx: RunContext, e: tuple) -> CaseResult:
    scheme = scroll(e, ctx.char)
    f = sum(e)
    expected = {"q1": [en_betti(f, p) for p in range(1, f + 1)],
                "q2": [0] * f}
    computed: dict = {"q1": [], "q2": []}
    warnings = []
    for q in (1, 2):
        for p in range(1, f + 1):
            try:
                got = koszul_dim(scheme, p, q, ctx.entry_budget)
            except BudgetError as exc:
                got = None
                warnings.append(f"entry ({p},{q}) skipped: {exc}")
            computed[f"q{q}"].append(got)
    if len(warnings) == 2 * f:
        return CaseResult("SKIP", "every entry exceeded the budget", expected, computed, warnings)
    ok = all(
        got is None or got == exp
        for key in expected
        for exp, got in zip(expected[key], computed[key])
    )
    degree_label = f"degree {f} scroll of dimension {len(e)}"
    return _check(
        ok, expected, computed,
        f"{degree_label}: all computed entries match the two-row-matrix values",
        f"{degree_label}: computed strand differs from the two-row-matrix values",
        warnings,
    )


def _scroll_betti_cases(ctx: RunContext, args, instances, samples) -> list:
    cases = []
    for name, recipe in instances:
        if recipe is not None:
            scheme = build_recipe(recipe, ctx)
            if scheme.labels.get("kind") not in ("scroll", "rnc"):
                raise InputError("scroll-betti verifies scrolls; pass a scroll/rnc recipe")
            name = "-".join(str(v) for v in scheme.labels["type"])
        e = tuple(int(v) for v in name.split("-"))
        cases.append(Case(f"scroll-betti/{name}", partial(_scroll_case, ctx, e)))
    return cases


def _ep_dim_case(ctx: RunContext, name: str, recipe) -> CaseResult:
    scheme, p, basis = _strand_instance(name, recipe, ctx)
    via_rank = koszul_dim(scheme, p, 1, ctx.entry_budget)
    expected = p  # f - 1 on a degree-f scroll
    ok = len(basis) == expected and via_rank == expected
    return _check(
        ok, expected, {"cocycle_basis": len(basis), "rank_formula": via_rank},
        f"dim K_({p},1) = {expected} by both routes",
        f"dim K_({p},1) should be {expected}",
    )


def _ep_class_case(ctx: RunContext, name: str, recipe, cid: str, k: int) -> CaseResult:
    scheme, _, basis = _strand_instance(name, recipe, ctx)
    alpha = _random_class(basis, _case_rng(ctx.seed, cid))
    same = syzygy_scheme(alpha).scheme.ideal.equal_as_schemes(scheme.ideal)
    return _check(
        same,
        "saturate(Syz(alpha)) == saturated ideal of the scheme",
        {"equal": same, "class": alpha.to_json_dict()},
        "syzygy scheme of the sampled class equals the scheme",
        "syzygy scheme of the sampled class DIFFERS from the scheme",
    )


def _ep_cases(ctx: RunContext, args, instances, samples) -> list:
    cases = []
    for name, recipe in instances:
        cases.append(Case(f"ep/{name}/dim", partial(_ep_dim_case, ctx, name, recipe)))
        cases += _numbered(f"ep/{name}/class", samples, partial(_ep_class_case, ctx, name, recipe))
    return cases


def _reconstruct_case(ctx: RunContext, points, name: str, recipe, cid: str, k: int) -> CaseResult:
    scheme, _, basis = _strand_instance(name, recipe, ctx)
    rng = _case_rng(ctx.seed, cid)
    alpha = _random_class(basis, rng)
    warnings: list = []
    pts = _sampled_spanning(scheme, points or 0, rng, warnings)
    if pts is None:
        return CaseResult("FAIL", "could not sample a spanning point set", None, None)
    result, _, equal, inclusions = _reconstruct(alpha, pts)
    warnings.extend(result.warnings)
    return _check(
        equal and inclusions,
        {"equal": True, "every_cone_contains": True},
        {"equal": equal, "every_cone_contains": inclusions,
         "class": alpha.to_json_dict(), "points": [list(pt.coords) for pt in pts]},
        f"intersection of {len(result.cones)} cones equals the syzygy scheme",
        "reconstruction diverged from the syzygy scheme",
        warnings,
    )


def _reconstruct_cases(ctx: RunContext, args, instances, samples) -> list:
    cases = []
    for name, recipe in instances:
        run = partial(_reconstruct_case, ctx, args.points, name, recipe)
        cases += _numbered(f"reconstruct/{name}/class", samples, run)
    return cases


def _containment_case(ctx: RunContext, name: str, recipe, cid: str, k: int) -> CaseResult:
    scheme, _, basis = _strand_instance(name, recipe, ctx)
    alpha = _pick_class(basis, k, ctx, cid)
    origin = f"basis class {k}" if k < len(basis) else "random combination"
    syz = syzygy_scheme(alpha).scheme.ideal
    ok = scheme.ideal.contains_ideal(syz)
    computed = {"scheme_inside_syzygy_scheme": ok, "class": alpha.to_json_dict()}
    if recipe is None:  # the trigonal curve: its quadric hull lies inside too
        hull_ok = quadric_hull(scheme).ideal.contains_ideal(syz)
        computed["hull_inside_syzygy_scheme"] = hull_ok
        ok = ok and hull_ok
    return _check(
        ok, "every syzygy-scheme generator lies in the instance ideal(s)", computed,
        f"{origin}: containments hold",
        f"{origin}: containment failed",
    )


def _cone_case(ctx: RunContext, name: str, recipe, cid: str) -> CaseResult:
    scheme, p, basis = _strand_instance(name, recipe, ctx)
    if p < 2:
        return CaseResult("SKIP", "projection needs p >= 2", None, None)
    rng = _case_rng(ctx.seed, cid)
    alpha = _random_class(basis, rng)
    warnings: list = []
    pts = _sampled_spanning(scheme, scheme.ring.nvars, rng, warnings)
    if pts is None:
        return CaseResult("FAIL", "could not sample a spanning point set", None, None)
    result = reconstruct_from_projections(alpha, pts)
    inclusions = _cones_inside(result)
    warnings.extend(result.warnings)
    checked = len(result.cones)
    if checked == 0:
        return CaseResult(
            "SKIP", "every sampled projection killed the class", None, None, warnings
        )
    return _check(
        inclusions,
        "every cone generator lies in the syzygy-scheme ideal",
        {"cones_checked": checked, "class": alpha.to_json_dict()},
        f"{checked} cone(s): generators lie in the syzygy-scheme ideal",
        "a cone generator escaped the syzygy-scheme ideal",
        warnings,
    )


def _inc_syz_cases(ctx: RunContext, args, instances, samples) -> list:
    cases = []
    for name, recipe in instances:
        width = len(_strand_instance(name, recipe, ctx)[2])
        cases += _numbered(
            f"inc-syz/{name}/class", width + samples,
            partial(_containment_case, ctx, name, recipe),
        )
        cid = f"inc-syz/{name}/cones"
        cases.append(Case(cid, partial(_cone_case, ctx, name, recipe, cid)))
    return cases


_GREEN_GRIDS = {
    "genus4-ci": {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1},
    "genus5-ci": {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1},
    "trigonal-g5": {(0, 0): 1, (1, 1): 3, (2, 1): 2, (1, 2): 2, (2, 2): 3, (3, 3): 1},
}
_GREEN_CI_DEGREES = {"genus4-ci": (2, 3), "genus5-ci": (2, 2, 2)}


def _green_instance(name: str, ctx: RunContext) -> EmbeddedScheme:
    if name not in _GREEN_CI_DEGREES:
        return _quintic_image(name, ctx)[2]
    ctx.assume("ci")
    return ctx.cached(
        name, lambda: complete_intersection(_GREEN_CI_DEGREES[name], ctx.char, seed=ctx.seed)
    )


def _green_table_case(ctx: RunContext, name: str) -> CaseResult:
    scheme = _green_instance(name, ctx)
    expected = _GREEN_GRIDS[name]
    pmax = max(p for p, _ in expected)
    qmax = max(q for _, q in expected)
    table = betti_table(scheme, pmax, qmax, ctx.entry_budget)
    got = dict(table.entries)
    return _check(
        got == expected, _grid_json(expected), _grid_json(got),
        "Betti grid matches the derived values",
        "Betti grid differs from the derived values",
    )


def _green_strand_case(ctx: RunContext, name: str) -> CaseResult:
    scheme = _green_instance(name, ctx)
    expected = _GREEN_GRIDS[name]
    checks = {}
    ok = True
    for p in range(1, 4):
        want = expected.get((p, 1), 0)
        rank_route = koszul_dim(scheme, p, 1, ctx.entry_budget)
        ideal_route = linear_strand_dim_from_ideal(scheme, p)
        checks[f"b_{p},1"] = {"rank": rank_route, "ideal": ideal_route, "expected": want}
        ok = ok and rank_route == want and ideal_route == want
    return _check(
        ok, {f"b_{p},1": expected.get((p, 1), 0) for p in range(1, 4)}, checks,
        "linear strand agrees across both routes",
        "linear strand disagreement",
    )


def _green_hull_case(ctx: RunContext, cid: str) -> CaseResult:
    scheme, _, basis = _strand_instance("trigonal-g5", None, ctx)
    hull = quadric_hull(scheme)
    ctx.assume("quadric-hull")
    rng = _case_rng(ctx.seed, cid)
    classes = list(basis) + [_random_class(basis, rng) for _ in range(3)]
    bad = next(
        (i for i, alpha in enumerate(classes)
         if not hull.ideal.contains_ideal(syzygy_scheme(alpha).scheme.ideal)),
        None,
    )
    hd = hull.ideal.hilbert_data()
    ok = bad is None and (hd.dimension, hd.degree) == (2, 3)
    return _check(
        ok,
        {"hull_inside_every_syzygy_scheme": True, "hull_hilbert": [2, 3]},
        {"first_failure": bad, "hull_hilbert": [hd.dimension, hd.degree],
         "classes_checked": len(classes)},
        "the quadric hull lies in every syzygy scheme of the strand",
        "a strand class has a syzygy scheme missing the hull",
    )


def _green_cases(ctx: RunContext, args, instances, samples) -> list:
    cases = []
    for name, _ in instances:
        cases.append(Case(f"green-small/{name}/table", partial(_green_table_case, ctx, name)))
        cases.append(Case(f"green-small/{name}/strand", partial(_green_strand_case, ctx, name)))
    cid = "green-small/trigonal-g5/hull"
    return cases + [Case(cid, partial(_green_hull_case, ctx, cid))]


def _nodal_quadrics_case(ctx: RunContext) -> CaseResult:
    model, forms, image = _quintic_image("nodal-d", ctx)
    via_kernel = implicitize_kernel(model, forms)
    via_elim = implicitize_eliminate(model, forms)
    routes_agree = via_kernel.same_ideal(via_elim)
    k2 = [str(g) for g in via_kernel.graded_basis(2)]
    i2 = [str(g) for g in image.ideal.graded_basis(2)]
    ok = routes_agree and k2 == i2 and len(k2) == 3
    return _check(
        ok,
        {"routes_agree": True, "quadric_count": 3},
        {"routes_agree": routes_agree, "quadric_count": len(k2)},
        "section-ring quadric kernel matches the image ideal by both routes",
        "quadric spaces disagree between the two implicitization routes",
    )


def _nodal_strand_case(ctx: RunContext) -> CaseResult:
    image = _quintic_image("nodal-d", ctx)[2]
    hull = quadric_hull(image)
    ctx.assume("quadric-hull")
    row_image = [koszul_dim(image, p, 1, ctx.entry_budget) for p in (1, 2, 3)]
    row_hull = [koszul_dim(hull, p, 1, ctx.entry_budget) for p in (1, 2, 3)]
    expected = [en_betti(3, p) for p in (1, 2, 3)]
    ok = row_image == row_hull == expected
    return _check(
        ok, expected, {"image": row_image, "hull": row_hull},
        "nodal-image linear strand matches the section-ring side and the "
        "degree-3 two-row values",
        "linear strands diverge",
    )


def _nodal_vanishing_case(ctx: RunContext) -> CaseResult:
    k31_d = koszul_dim(_quintic_image("nodal-d", ctx)[2], 3, 1, ctx.entry_budget)
    k21_c = koszul_dim(_quintic_image("genus4", ctx)[2], 2, 1, ctx.entry_budget)
    ok = k31_d == 0 and k21_c == 0
    return _check(
        ok, {"K_3,1(D)": 0, "K_2,1(C)": 0},
        {"K_3,1(D)": k31_d, "K_2,1(C)": k21_c},
        "vanishing transfers between the nodal curve and its normalization model",
        "expected vanishing failed",
    )


def _nodal_genus_case(ctx: RunContext) -> CaseResult:
    hd_d = _quintic_image("nodal-d", ctx)[2].ideal.hilbert_data()
    hd_c = _quintic_image("genus4", ctx)[2].ideal.hilbert_data()
    got = {"D": [hd_d.dimension, hd_d.degree, 1 - hd_d(0)],
           "C": [hd_c.dimension, hd_c.degree, 1 - hd_c(0)]}
    want = {"D": [1, 8, 5], "C": [1, 6, 4]}
    return _check(
        got == want, want, got,
        "degrees and arithmetic genera of the pair are as constructed",
        "Hilbert bookkeeping of the pair is off",
    )


def _nodal_iso_cases(ctx: RunContext, args, instances, samples) -> list:
    return [
        Case("nodal-iso/genus-bookkeeping", partial(_nodal_genus_case, ctx)),
        Case("nodal-iso/linear-strand", partial(_nodal_strand_case, ctx)),
        Case("nodal-iso/quadrics-match", partial(_nodal_quadrics_case, ctx)),
        Case("nodal-iso/vanishing-transfer", partial(_nodal_vanishing_case, ctx)),
    ]


def _membership_case(ctx: RunContext, points, name: str, recipe, cid: str) -> CaseResult:
    scheme, _, basis = _strand_instance(name, recipe, ctx)
    rng = _case_rng(ctx.seed, cid)
    alpha = _random_class(basis, rng)
    total = points if points is not None else 25
    on_count = (total + 1) // 2
    pts = sample_points(scheme, on_count, int(rng.integers(1 << 30)))
    nv = scheme.ring.nvars
    off_pts = []
    while len(off_pts) < total - on_count:
        coords = tuple(int(v) for v in rng.integers(0, scheme.char, size=nv))
        if not any(coords):
            continue
        pt = ProjectivePoint.make(scheme.char, coords)
        if not scheme.contains(pt.coords):
            off_pts.append(pt)
    members = 0
    on_scheme_all_members = True
    for pt in list(pts) + off_pts:
        res = syz_membership(alpha, pt)  # raises ConsistencyError on route splits
        members += res.member
        if not res.member and res.point_on_scheme:
            on_scheme_all_members = False
    non_members = total - members
    computed = {
        "points": total,
        "members": members,
        "non_members": non_members,
        "class": alpha.to_json_dict(),
    }
    return _check(
        on_scheme_all_members,
        "route agreement at every point; scheme points are members",
        computed,
        f"routes agree at {total} points ({members} members, {non_members} not)",
        "a scheme point failed syzygy-scheme membership",
    )


def _aprodu_cases(ctx: RunContext, args, instances, samples) -> list:
    return [
        Case(f"aprodu-proj/{name}",
             partial(_membership_case, ctx, args.points, name, recipe, f"aprodu-proj/{name}"))
        for name, recipe in instances
    ]


def _schreyer_value_case(ctx: RunContext) -> CaseResult:
    scheme = _quintic_image("trigonal-g5", ctx)[2]
    rank_route = koszul_dim(scheme, 2, 1, ctx.entry_budget)
    ideal_route = linear_strand_dim_from_ideal(scheme, 2)
    expected = 2  # genus 5, gonality 3
    ok = rank_route == expected and ideal_route == expected
    return _check(
        ok, expected, {"rank": rank_route, "ideal": ideal_route},
        "extremal strand value equals genus - gonality by both routes",
        "extremal strand value is off",
    )


def _schreyer_scroll_case(ctx: RunContext, cid: str, k: int) -> CaseResult:
    scheme, _, basis = _strand_instance("trigonal-g5", None, ctx)
    hull = quadric_hull(scheme)
    ctx.assume("quadric-hull")
    alpha = _pick_class(basis, k, ctx, cid)
    syz = syzygy_scheme(alpha).scheme.ideal
    hd = syz.hilbert_data()
    contains_curve = scheme.ideal.contains_ideal(syz)
    equals_hull = syz.same_ideal(hull.ideal)
    ok = (hd.dimension, hd.degree) == (2, 3) and contains_curve and equals_hull
    return _check(
        ok,
        {"hilbert": [2, 3], "contains_curve": True, "equals_quadric_hull": True},
        {"hilbert": [hd.dimension, hd.degree], "contains_curve": contains_curve,
         "equals_quadric_hull": equals_hull, "class": alpha.to_json_dict()},
        "the class's syzygy scheme is the degree-3 surface swept by the pencil",
        "syzygy scheme is not the expected surface",
    )


def _schreyer_genus4_case(ctx: RunContext) -> CaseResult:
    scheme = _quintic_image("genus4", ctx)[2]
    basis = k_p1_cocycle_basis(scheme, 1, ctx.entry_budget)
    hull = quadric_hull(scheme)
    ctx.assume("quadric-hull")
    value = koszul_dim(scheme, 1, 1, ctx.entry_budget)
    ok = value == 1 and len(basis) == 1
    if ok:
        syz = syzygy_scheme(basis[0])
        ok = syz.scheme.ideal.same_ideal(hull.ideal)
    return _check(
        ok,
        {"b_1,1": 1, "syzygy_scheme": "the unique quadric through the curve"},
        {"b_1,1": value, "basis": len(basis)},
        "genus-4 extremal class cuts out the unique quadric",
        "genus-4 extremal data is off",
    )


def _schreyer_nodal_case(ctx: RunContext) -> CaseResult:
    image = _quintic_image("nodal-d", ctx)[2]
    b21_d = koszul_dim(image, 2, 1, ctx.entry_budget)
    hd = quadric_hull(image).ideal.hilbert_data()
    k21_c = koszul_dim(_quintic_image("genus4", ctx)[2], 2, 1, ctx.entry_budget)
    ok = b21_d == 2 and (hd.dimension, hd.degree) == (2, 3) and k21_c == 0
    return _check(
        ok,
        {"b_2,1(D)": 2, "hull_hilbert": [2, 3], "K_2,1(C)": 0},
        {"b_2,1(D)": b21_d, "hull_hilbert": [hd.dimension, hd.degree], "K_2,1(C)": k21_c},
        "hypotheses hold on the nodal curve and the conclusion holds on its model",
        "the implication instance failed",
    )


def _schreyer_cases(ctx: RunContext, args, instances, samples) -> list:
    return [
        Case("schreyer-converse/trigonal-g5/value", partial(_schreyer_value_case, ctx)),
        Case("schreyer-converse/genus4/quadric", partial(_schreyer_genus4_case, ctx)),
        Case("schreyer-converse/nodal-implication", partial(_schreyer_nodal_case, ctx)),
        *_numbered(
            "schreyer-converse/trigonal-g5/scroll", 2 + samples,
            partial(_schreyer_scroll_case, ctx),
        ),
    ]


@dataclass(frozen=True)
class Suite:
    cases: object  # (ctx, args, [(instance name, recipe or None)], samples) -> [Case]
    corpus: tuple = ()  # instance names, when --variety does not replace them
    samples: int = 0  # default --samples
    variety: bool = True  # whether --variety may replace the corpus


_SCROLLS = ("rnc-3", "rnc-4", "scroll-1-2", "scroll-2-2")

SUITES = {
    "scroll-betti": Suite(
        _scroll_betti_cases, tuple("-".join(map(str, e)) for e in scroll_types())
    ),
    "ep": Suite(_ep_cases, _SCROLLS, samples=10),
    "reconstruct": Suite(_reconstruct_cases, _SCROLLS[:3], samples=3),
    "inc-syz": Suite(_inc_syz_cases, (*_SCROLLS, "trigonal-g5"), samples=3),
    "green-small": Suite(
        _green_cases, ("genus4-ci", "genus5-ci", "trigonal-g5"), variety=False
    ),
    "nodal-iso": Suite(_nodal_iso_cases, variety=False),
    "aprodu-proj": Suite(_aprodu_cases, (*_SCROLLS, "trigonal-g5")),
    "schreyer-converse": Suite(_schreyer_cases, samples=3, variety=False),
}


def _replay_command(suite: str, case_id: str, ctx: RunContext, args) -> str:
    parts = [
        "syz", "verify", suite,
        "--case", case_id,
        "--field-char", str(ctx.char),
        "--seed", str(ctx.seed),
    ]
    if args.samples is not None:
        parts += ["--samples", str(args.samples)]
    if args.points is not None:
        parts += ["--points", str(args.points)]
    if args.variety:
        parts += ["--variety", json.dumps(args.variety)]
    if args.entry_budget is not None:
        parts += ["--entry-budget", str(args.entry_budget)]
    return " ".join(parts)


def cmd_verify(args, ctx: RunContext) -> int:
    suite = SUITES.get(args.suite)
    if suite is None:
        raise InputError(
            f"unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}"
        )
    if args.variety and not suite.variety:
        raise InputError(f"{args.suite} runs a fixed corpus; --variety is not accepted")
    if args.variety:
        instances = [(args.variety.replace(" ", "-"), args.variety)]
    else:
        instances = [(name, _RECIPES.get(name)) for name in suite.corpus]
    samples = args.samples if args.samples is not None else suite.samples
    cases = [
        c for c in suite.cases(ctx, args, instances, samples)
        if not args.case or c.id == args.case
    ]
    if not cases:
        raise InputError(
            f"no cases selected in suite {args.suite} (check --case and --samples)"
        )
    cases.sort(key=lambda c: c.id)

    def timed(case: Case):
        start = time.time()
        result = case.run()
        return case.id, result, time.time() - start

    outcomes = [timed(c) for c in cases]

    case_payloads = []
    lines = []
    for cid, result, elapsed in outcomes:
        ctx.case_timings[cid] = elapsed
        entry = {
            "id": cid,
            "status": result.status,
            "detail": result.detail,
            "expected": _jsonable(result.expected),
            "computed": _jsonable(result.computed),
            "warnings": list(result.warnings),
            "replay": _replay_command(args.suite, cid, ctx, args),
        }
        case_payloads.append(entry)
        lines.append(f"{result.status:4} {cid} — {result.detail}")
        lines += [f"     warning: {w}" for w in result.warnings]
        ctx.warnings.extend(f"{cid}: {w}" for w in result.warnings)
    counts = {
        status: sum(r.status == status for _, r, _ in outcomes)
        for status in ("PASS", "FAIL", "SKIP")
    }
    first_failure = next((e for e in case_payloads if e["status"] == "FAIL"), None)
    verdict = "PASS" if counts["FAIL"] == 0 else "FAIL"
    payload = {
        "suite": args.suite,
        "result": verdict,
        "summary": {
            "cases": len(outcomes),
            "passed": counts["PASS"],
            "failed": counts["FAIL"],
            "skipped": counts["SKIP"],
        },
        "cases": case_payloads,
    }
    lines.append(
        f"suite {args.suite}: {verdict} — {counts['PASS']}/{len(outcomes)} passed, "
        f"{counts['SKIP']} skipped ({time.time() - ctx.t0:.1f}s)"
    )
    if first_failure is not None:
        lines.append("first divergent case, serialized for replay:")
        lines.append(json.dumps(first_failure, indent=2, sort_keys=True))
    _emit(ctx, payload, lines)
    return 0 if verdict == "PASS" else 1


# ---------------------------------------------------------------------------
# parser


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `syz` parser, built once per process and shared by every `main`
    call.  Reuse is safe: parsing leaves the parser as it was, every
    default is immutable, and `--point` appends to a default of None, so
    each parse starts its own list."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field-char", type=int, default=None, metavar="P",
                        help=f"prime field characteristic (default {DEFAULT_CHAR})")
    common.add_argument("--seed", type=_at_least(0), default=0, metavar="N",
                        help="seed for every pseudorandom draw (default 0)")
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
    common.add_argument("--entry-budget", type=_at_least(1), default=None, metavar="N",
                        help="max entries of each Koszul matrix as it is built: on the Artinian "
                        "reduction for Betti numbers, on the coordinate ring for cocycle "
                        f"bases (default {DEFAULT_ENTRY_BUDGET})")

    classsel = argparse.ArgumentParser(add_help=False)
    classsel.add_argument("--p", type=_at_least(0), default=None,
                          help="wedge degree of the linear-strand class")
    classsel.add_argument("--class-index", type=int, default=0, metavar="K",
                          help="index into the canonical strand basis (default 0)")
    classsel.add_argument("--class-coeffs", type=str, default=None, metavar="C0,C1,...",
                          help="combination of the canonical basis instead of an index")
    classsel.add_argument("--class-file", type=str, default=None, metavar="PATH",
                          help="JSON cocycle file instead of a basis element")

    parser = argparse.ArgumentParser(
        prog="syz",
        description="Koszul cohomology, Betti tables, and syzygy schemes over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_betti = sub.add_parser("betti", parents=[common], help="Betti table of a scheme")
    p_betti.add_argument("source", help="ideal file or builder recipe")
    p_betti.add_argument("--pmax", type=int, default=None)
    p_betti.add_argument("--qmax", type=int, default=None)
    p_betti.set_defaults(handler=cmd_betti)

    p_coc = sub.add_parser("cocycles", parents=[common],
                           help="canonical basis of a (p,1) strand")
    p_coc.add_argument("source")
    p_coc.add_argument("--p", type=_at_least(0), required=True)
    p_coc.set_defaults(handler=cmd_cocycles)

    p_syz = sub.add_parser("syzscheme", parents=[common, classsel],
                           help="syzygy scheme of a class")
    p_syz.add_argument("source")
    p_syz.add_argument("--out", type=str, default=None, help="write the ideal file here")
    p_syz.set_defaults(handler=cmd_syzscheme)

    p_proj = sub.add_parser("project", parents=[common, classsel],
                            help="project a scheme (and class) from a point")
    p_proj.add_argument("source")
    p_proj.add_argument("--point", type=str, required=True, metavar="A,B,...",
                        help="projective point coordinates")
    p_proj.set_defaults(handler=cmd_project)

    p_rec = sub.add_parser("reconstruct", parents=[common, classsel],
                           help="reconstruct a syzygy scheme from projections")
    p_rec.add_argument("source")
    p_rec.add_argument("--points", type=_at_least(1), default=None,
                       help="how many points to sample; fewer than the default are "
                            "raised to it with a warning (default: ambient dimension + 1)")
    p_rec.add_argument("--point", action="append", default=None, metavar="A,B,...",
                       help="explicit point (repeatable; overrides sampling)")
    p_rec.set_defaults(handler=cmd_reconstruct)

    p_res = sub.add_parser("resolve", parents=[common],
                           help="minimal free resolution (independent oracle)")
    p_res.add_argument("source")
    p_res.add_argument("--degree-bound", type=_at_least(0), default=10)
    p_res.add_argument("--length-bound", type=_at_least(0), default=None)
    p_res.set_defaults(handler=cmd_resolve)

    p_build = sub.add_parser("build", parents=[common],
                             help="construct a scheme and summarize it")
    p_build.add_argument("source", help="builder recipe (or ideal file to round-trip)")
    p_build.add_argument("--out", type=str, default=None, help="write the ideal file here")
    p_build.set_defaults(handler=cmd_build)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run a verification suite")
    p_ver.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}")
    p_ver.add_argument("--variety", type=str, default=None,
                       help="recipe overriding the suite's default corpus (where accepted)")
    p_ver.add_argument("--samples", type=_at_least(0), default=None,
                       help="pseudorandom classes per instance (suite-specific default)")
    p_ver.add_argument("--points", type=_at_least(1), default=None,
                       help="points per instance (suite-specific default)")
    p_ver.add_argument("--case", type=str, default=None,
                       help="run a single case by id (replay)")
    p_ver.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        code = args.handler(args, _context(args, argv))
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except (InputError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (`syz resolve ... | head -1`): point stdout
        # at devnull so the flush at exit cannot raise again, and exit as
        # SIGPIPE would have ended the process (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
