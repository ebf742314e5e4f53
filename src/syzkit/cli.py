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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import comb

import numpy as np

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
    validate_plane_model,
)
from .errors import BudgetError, InputError, VerificationError
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

# standing assumptions recorded in reports, keyed by scheme kind
_ASSUMPTIONS = {
    "scroll": (
        "scrolls and rational normal curves are linearly normal and "
        "projectively normal by construction; not re-verified"
    ),
    "rnc": (
        "scrolls and rational normal curves are linearly normal and "
        "projectively normal by construction; not re-verified"
    ),
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
    jobs: int
    json_out: bool
    entry_budget: int
    t0: float = field(default_factory=time.time)
    inputs: list = field(default_factory=list)
    assumptions: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    case_timings: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)

    def note_input(self, source: str, text: str):
        entry = {"source": source, "sha256": hashlib.sha256(text.encode()).hexdigest()}
        if entry not in self.inputs:
            self.inputs.append(entry)

    def cached(self, key, build):
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]

    def assume(self, kind: str):
        line = _ASSUMPTIONS.get(kind)
        if line and line not in self.assumptions:
            self.assumptions.append(line)

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


def _print_json(report: dict):
    print(json.dumps(report, indent=2, sort_keys=True))


def _context(args, argv) -> RunContext:
    char = args.field_char if args.field_char is not None else DEFAULT_CHAR
    FieldSpec(char)  # a bad --field-char fails here, before any work starts
    return RunContext(
        command=args.command,
        argv=argv,
        char=char,
        seed=args.seed,
        jobs=max(1, args.jobs),
        json_out=args.json,
        entry_budget=(
            args.entry_budget if args.entry_budget is not None else DEFAULT_ENTRY_BUDGET
        ),
    )


# ---------------------------------------------------------------------------
# sources: ideal files and builder recipes


def _parse_point(text: str, char: int) -> ProjectivePoint:
    try:
        coords = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"bad point {text!r}; expected comma-separated integers") from None
    return ProjectivePoint.make(char, coords)


def _split_recipe(text: str):
    tokens = text.split()
    if not tokens:
        raise InputError("empty recipe")
    positional, options = [], {}
    for tok in tokens[1:]:
        if "=" in tok:
            key, value = tok.split("=", 1)
            options.setdefault(key, []).append(value)
        else:
            positional.append(tok)
    return tokens[0], positional, options


def _ints(values, what: str) -> list:
    try:
        return [int(v) for v in values]
    except ValueError:
        raise InputError(f"{what} must be integers, got {values}") from None


def _build_plane_model(options: dict, ctx: RunContext):
    paths = options.get("file")
    if not paths:
        raise InputError("plane-model recipe needs file=<ideal file with one generator>")
    path = paths[0]
    try:
        text = open(path).read()
    except OSError as exc:
        raise InputError(f"cannot read plane-model file {path}: {exc}") from None
    ctx.note_input(path, text)
    ideal = parse_ideal_text(text)
    if ideal.ring.nvars != 3 or len(ideal.gens) != 1:
        raise InputError(
            "plane-model file must define exactly one generator in three variables"
        )
    if ideal.ring.char != ctx.char:
        if any(a.startswith("--field-char") for a in ctx.argv):
            raise InputError(
                f"plane-model file uses field {ideal.ring.char}, but "
                f"--field-char {ctx.char} was given"
            )
        ctx.char = ideal.ring.char
    nodes = [
        _parse_point(v, ctx.char) for v in options.get("node", [])
    ]
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
    known = {"rnc", "scroll", "ci", "plane-model"}
    if kind not in known:
        raise InputError(f"unknown recipe kind {kind!r}; expected one of {sorted(known)}")
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
        scheme = complete_intersection(tuple(degrees), ctx.char, seed=seed)
    else:
        scheme = _build_plane_model(options, ctx)
    ctx.assume(scheme.labels.get("kind", "file"))
    return scheme


def load_scheme(source: str, ctx: RunContext) -> EmbeddedScheme:
    """A scheme from an ideal file path or a builder recipe string."""
    if os.path.exists(source):
        text = open(source).read()
        ctx.note_input(source, text)
        ideal = parse_ideal_text(text)
        if ctx.char != ideal.ring.char:
            if any(a.startswith("--field-char") or a == "--field-char" for a in ctx.argv):
                raise InputError(
                    f"file {source} declares field {ideal.ring.char} but "
                    f"--field-char {ctx.char} was given"
                )
            ctx.char = ideal.ring.char
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
            data = json.load(open(args.class_file))
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


def _random_class(basis, rng, char) -> KoszulCocycle:
    while True:
        coeffs = [int(c) for c in rng.integers(0, char, size=len(basis))]
        if any(coeffs):
            return _combine(basis, coeffs, char)


def _case_rng(seed: int, case_id: str):
    return np.random.default_rng([seed & 0xFFFFFFFF, *case_id.encode()])


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
    if isinstance(v, tuple):
        return list(v)
    if isinstance(v, list):
        return [_jsonable(x) for x in v]
    return v


# ---------------------------------------------------------------------------
# plain computation commands


def cmd_betti(args, argv) -> int:
    ctx = _context(args, argv)
    scheme = load_scheme(args.source, ctx)
    pmax = args.pmax if args.pmax is not None else scheme.ring.nvars - 1
    qmax = args.qmax if args.qmax is not None else 3
    table = betti_table(scheme, pmax, qmax, ctx.entry_budget)
    payload = {"scheme": _scheme_summary(scheme), "table": table.to_json_dict()}
    if ctx.json_out:
        _print_json(ctx.report(payload))
    else:
        print(f"# source: {args.source}")
        print(f"# field: {ctx.char}")
        print(table.text())
    return 0


def cmd_cocycles(args, argv) -> int:
    ctx = _context(args, argv)
    scheme = load_scheme(args.source, ctx)
    if args.p is None:
        raise InputError("cocycles needs --p (the wedge degree of the strand)")
    basis = k_p1_cocycle_basis(scheme, args.p, ctx.entry_budget)
    payload = {
        "scheme": _scheme_summary(scheme),
        "p": args.p,
        "dimension": len(basis),
        "classes": [c.to_json_dict() for c in basis],
    }
    if ctx.json_out:
        _print_json(ctx.report(payload))
    else:
        print(f"# source: {args.source}")
        print(f"dim K_({args.p},1) = {len(basis)}")
        for c in basis:
            print(json.dumps(c.to_json_dict(), sort_keys=True))
    return 0


def cmd_syzscheme(args, argv) -> int:
    ctx = _context(args, argv)
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
        with open(args.out, "w") as fh:
            fh.write(text)
    if ctx.json_out:
        _print_json(ctx.report(payload))
    elif not args.out:
        print(text, end="")
    else:
        print(f"wrote {args.out}")
    return 0


def cmd_project(args, argv) -> int:
    ctx = _context(args, argv)
    scheme = load_scheme(args.source, ctx)
    point = _parse_point(args.point, ctx.char)
    wants_class = args.p is not None or args.class_file
    class_payload = None
    if wants_class:
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
    if class_payload:
        payload.update(class_payload)
    if ctx.json_out:
        _print_json(ctx.report(payload))
    else:
        print(f"# projection of {args.source} from {point.coords}")
        print(
            format_ideal_text(
                context.projected.ideal,
                [f"projected scheme: hilbert dimension {hd.dimension}, degree {hd.degree}"],
            ),
            end="",
        )
        if class_payload:
            print(f"# projected class survived: {class_payload['survived']}")
            print(json.dumps(class_payload["projected_class"], sort_keys=True))
    return 0


def _spanning_points(scheme: EmbeddedScheme, count: int, seed: int, ctx: RunContext):
    """Distinct points on the scheme whose coordinates span the ambient
    space; extends the sample (with a warning) if a draw is degenerate."""
    nv = scheme.ring.nvars
    want = max(count, nv)
    for attempt in range(3):
        pts = sample_points(scheme, want + attempt * nv, seed + attempt)
        mat = np.array([p.coords for p in pts], dtype=np.int64)
        if matrix_rank(mat, scheme.char) == nv:
            if attempt:
                ctx.warnings.append(
                    f"point sample extended {attempt} time(s) to reach a spanning set"
                )
            return pts[: want + attempt * nv]
    raise InputError(
        f"could not draw a spanning set of {want} points on the scheme "
        f"(seed {seed}); is it degenerate?"
    )


def cmd_reconstruct(args, argv) -> int:
    ctx = _context(args, argv)
    scheme = load_scheme(args.source, ctx)
    cocycle = select_class(scheme, args, ctx)
    if args.point:
        points = [_parse_point(t, ctx.char) for t in args.point]
    else:
        count = args.points if args.points is not None else scheme.ring.nvars
        points = _spanning_points(scheme, count, ctx.seed, ctx)
    result = reconstruct_from_projections(cocycle, points)
    ctx.warnings.extend(result.warnings)
    syz_sat = result.syzygy.scheme.ideal.saturate_irrelevant()
    rec_sat = result.ideal.saturate_irrelevant()
    equal = rec_sat.same_ideal(syz_sat)
    inclusions = all(
        all(result.syzygy.scheme.ideal.contains(g) for g in cone.gens)
        for (_, cone, _) in result.cones
    )
    payload = {
        "scheme": _scheme_summary(scheme),
        "class": cocycle.to_json_dict(),
        "points": [list(p.coords) for p in points],
        "cones": len(result.cones),
        "equal_to_syzygy_scheme": equal,
        "every_cone_contains_syzygy_scheme": inclusions,
        "reconstruction": _ideal_json(rec_sat),
    }
    if ctx.json_out:
        _print_json(ctx.report(payload))
    else:
        print(f"# reconstruction of the syzygy scheme on: {args.source}")
        print(f"points used: {len(points)}; cones intersected: {len(result.cones)}")
        for w in result.warnings:
            print(f"warning: {w}")
        print(f"equal to the syzygy scheme (after saturation): {equal}")
        print(f"every cone contains the syzygy scheme: {inclusions}")
    return 0


def cmd_resolve(args, argv) -> int:
    ctx = _context(args, argv)
    scheme = load_scheme(args.source, ctx)
    res = minimal_free_resolution(
        scheme.ideal, degree_bound=args.degree_bound, length_bound=args.length_bound
    )
    strand = {}
    for (s, d), n in res.graded_betti().items():
        strand[(s, d - s)] = n
    payload = {
        "scheme": _scheme_summary(scheme),
        "modules": [sorted(m) for m in res.modules],
        "graded_betti": {f"{s},{d}": n for (s, d), n in sorted(res.graded_betti().items())},
        "strand": _grid_json(strand),
        "length": res.length(),
        "truncated": res.truncated,
    }
    if ctx.json_out:
        _print_json(ctx.report(payload))
    else:
        print(f"# minimal free resolution of: {args.source}")
        for s, degs in enumerate(res.modules):
            print(f"F_{s}: rank {len(degs)}, generator degrees {sorted(degs)}")
        print(f"length {res.length()}, truncated: {res.truncated}")
    return 0


def cmd_build(args, argv) -> int:
    ctx = _context(args, argv)
    scheme = load_scheme(args.source, ctx)
    summary = _scheme_summary(scheme)
    payload = {"scheme": summary, "ideal": _ideal_json(scheme.ideal)}
    if args.out:
        comments = [f"built from: {args.source}", f"labels: {json.dumps(summary['labels'], sort_keys=True)}"]
        with open(args.out, "w") as fh:
            fh.write(format_ideal_text(scheme.ideal, comments))
    if ctx.json_out:
        _print_json(ctx.report(payload))
    else:
        print(f"# built: {args.source}")
        for k, v in summary["labels"].items():
            print(f"{k}: {v}")
        print(f"ambient: P^{scheme.ring.nvars - 1} over F_{scheme.char}")
        hd = summary["hilbert"]
        print(f"hilbert dimension {hd['dimension']}, degree {hd['degree']}")
        print(f"generators by degree: {summary['generators_by_degree']}")
        if args.out:
            print(f"wrote {args.out}")
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


def _delta_shape(scheme: EmbeddedScheme, p: int, q: int):
    nv = scheme.ring.nvars
    rows = comb(nv, p - 1) * scheme.hilbert_function(q + 1)
    cols = comb(nv, p) * scheme.hilbert_function(q)
    return rows, cols


def _betti_entry_cost(scheme: EmbeddedScheme, p: int, q: int) -> int:
    """Largest matrix entry-count needed for b_{p,q} by the rank formula."""
    cost = 0
    for pp, qq in ((p, q), (p + 1, q - 1)):
        rows, cols = _delta_shape(scheme, pp, qq)
        cost = max(cost, rows * cols)
    return cost


def _scroll_case(e: tuple, ctx: RunContext) -> CaseResult:
    scheme = scroll(e, ctx.char)
    f = sum(e)
    expected = {"q1": [en_betti(f, p) for p in range(1, f + 1)],
                "q2": [0] * f}
    computed: dict = {"q1": [], "q2": []}
    skipped = []
    for q in (1, 2):
        for p in range(1, f + 1):
            cost = _betti_entry_cost(scheme, p, q)
            if cost > ctx.entry_budget:
                computed[f"q{q}"].append(None)
                skipped.append((p, q, cost))
            else:
                computed[f"q{q}"].append(koszul_dim(scheme, p, q, ctx.entry_budget))
    warnings = [
        f"entry ({p},{q}) skipped: needs a {cost}-entry matrix, budget {ctx.entry_budget}"
        for (p, q, cost) in skipped
    ]
    pairs = [
        (exp, got)
        for key in ("q1", "q2")
        for exp, got in zip(expected[key], computed[key])
        if got is not None
    ]
    if not pairs:
        return CaseResult("SKIP", "every entry exceeded the budget", expected, computed, warnings)
    ok = all(exp == got for exp, got in pairs)
    degree_label = f"degree {f} scroll of dimension {len(e)}"
    return _check(
        ok, expected, computed,
        f"{degree_label}: all computed entries match the two-row-matrix values",
        f"{degree_label}: computed strand differs from the two-row-matrix values",
        warnings,
    )


def suite_scroll_betti(ctx: RunContext, args) -> list:
    if args.variety:
        scheme = build_recipe(args.variety, ctx)
        if scheme.labels.get("kind") not in ("scroll", "rnc"):
            raise InputError("scroll-betti verifies scrolls; pass a scroll/rnc recipe")
        types = [tuple(scheme.labels["type"])]
    else:
        types = scroll_types()
    cases = []
    for e in types:
        cid = "scroll-betti/" + "-".join(str(v) for v in e)
        cases.append(Case(cid, lambda e=e: _scroll_case(e, ctx)))
    return cases


_EP_INSTANCES = (
    ("rnc-3", "rnc 3"),
    ("rnc-4", "rnc 4"),
    ("scroll-1-2", "scroll 1 2"),
    ("scroll-2-2", "scroll 2 2"),
)


def _instance_scheme(recipe: str, ctx: RunContext) -> EmbeddedScheme:
    return ctx.cached(("recipe", recipe), lambda: build_recipe(recipe, ctx))


def _top_strand(scheme: EmbeddedScheme) -> int:
    if scheme.labels.get("kind") not in ("scroll", "rnc"):
        raise InputError("this suite needs scroll-type instances (pass a scroll/rnc recipe)")
    return sum(scheme.labels["type"]) - 1


def _ep_dim_case(recipe: str, ctx: RunContext) -> CaseResult:
    scheme = _instance_scheme(recipe, ctx)
    p = _top_strand(scheme)
    f = p + 1
    basis = k_p1_cocycle_basis(scheme, p, ctx.entry_budget)
    via_rank = koszul_dim(scheme, p, 1, ctx.entry_budget)
    expected = f - 1
    ok = len(basis) == expected and via_rank == expected
    return _check(
        ok, expected, {"cocycle_basis": len(basis), "rank_formula": via_rank},
        f"dim K_({p},1) = {expected} by both routes",
        f"dim K_({p},1) should be {expected}",
    )


def _ep_class_case(recipe: str, cid: str, ctx: RunContext) -> CaseResult:
    scheme = _instance_scheme(recipe, ctx)
    p = _top_strand(scheme)
    basis = k_p1_cocycle_basis(scheme, p, ctx.entry_budget)
    alpha = _random_class(basis, _case_rng(ctx.seed, cid), scheme.char)
    result = syzygy_scheme(alpha)
    same = result.scheme.ideal.saturate_irrelevant().same_ideal(
        scheme.ideal.saturate_irrelevant()
    )
    return _check(
        same,
        "saturate(Syz(alpha)) == saturated ideal of the scheme",
        {"equal": same, "class": alpha.to_json_dict()},
        "syzygy scheme of the sampled class equals the scheme",
        "syzygy scheme of the sampled class DIFFERS from the scheme",
    )


def suite_ep(ctx: RunContext, args) -> list:
    samples = args.samples if args.samples is not None else 10
    instances = (
        [(args.variety.replace(" ", "-"), args.variety)] if args.variety else list(_EP_INSTANCES)
    )
    cases = []
    for name, recipe in instances:
        cases.append(Case(f"ep/{name}/dim", lambda r=recipe: _ep_dim_case(r, ctx)))
        for k in range(samples):
            cid = f"ep/{name}/class-{k:02d}"
            cases.append(Case(cid, lambda r=recipe, c=cid: _ep_class_case(r, c, ctx)))
    return cases


_RECONSTRUCT_INSTANCES = (
    ("rnc-3", "rnc 3"),
    ("rnc-4", "rnc 4"),
    ("scroll-1-2", "scroll 1 2"),
)


def _sampled_spanning(scheme: EmbeddedScheme, count: int, rng, warnings: list):
    """`count` (at least nvars) points on the scheme spanning the ambient
    space, or None after three widening attempts."""
    count = max(count, scheme.ring.nvars)
    for attempt in range(3):
        candidate = sample_points(scheme, count + attempt, int(rng.integers(1 << 30)))
        mat = np.array([pt.coords for pt in candidate], dtype=np.int64)
        if matrix_rank(mat, scheme.char) == scheme.ring.nvars:
            if attempt:
                warnings.append(f"extended the sample {attempt} time(s) to span")
            return candidate
    return None


def _reconstruct_case(recipe: str, cid: str, ctx: RunContext, points_flag) -> CaseResult:
    scheme = _instance_scheme(recipe, ctx)
    p = _top_strand(scheme)
    basis = k_p1_cocycle_basis(scheme, p, ctx.entry_budget)
    rng = _case_rng(ctx.seed, cid)
    alpha = _random_class(basis, rng, scheme.char)
    count = points_flag if points_flag is not None else scheme.ring.nvars
    warnings: list = []
    pts = _sampled_spanning(scheme, count, rng, warnings)
    if pts is None:
        return CaseResult("FAIL", "could not sample a spanning point set", None, None)
    result = reconstruct_from_projections(alpha, pts)
    warnings.extend(result.warnings)
    syz_sat = result.syzygy.scheme.ideal.saturate_irrelevant()
    equal = result.ideal.saturate_irrelevant().same_ideal(syz_sat)
    inclusions = all(
        all(result.syzygy.scheme.ideal.contains(g) for g in cone.gens)
        for (_, cone, _) in result.cones
    )
    ok = equal and inclusions
    return _check(
        ok,
        {"equal": True, "every_cone_contains": True},
        {"equal": equal, "every_cone_contains": inclusions,
         "class": alpha.to_json_dict(), "points": [list(pt.coords) for pt in pts]},
        f"intersection of {len(result.cones)} cones equals the syzygy scheme",
        "reconstruction diverged from the syzygy scheme",
        warnings,
    )


def suite_reconstruct(ctx: RunContext, args) -> list:
    samples = args.samples if args.samples is not None else 3
    instances = (
        [(args.variety.replace(" ", "-"), args.variety)]
        if args.variety
        else list(_RECONSTRUCT_INSTANCES)
    )
    cases = []
    for name, recipe in instances:
        for k in range(samples):
            cid = f"reconstruct/{name}/class-{k:02d}"
            cases.append(
                Case(cid, lambda r=recipe, c=cid: _reconstruct_case(r, c, ctx, args.points))
            )
    return cases


def _trigonal_scheme(ctx: RunContext) -> EmbeddedScheme:
    def build():
        model = nodal_quintic(1, ctx.char, seed=ctx.seed)
        return model_image(
            model,
            adjoint_system(model, 2),
            labels={"kind": "plane-model-image", "model": "1-nodal quintic", "genus": 5},
        )

    ctx.assume("plane-model-image")
    return ctx.cached("trigonal-g5", build)


def _genus4_scheme(ctx: RunContext) -> EmbeddedScheme:
    def build():
        model = nodal_quintic(2, ctx.char, seed=ctx.seed)
        return model_image(
            model,
            adjoint_system(model, 2),
            labels={"kind": "plane-model-image", "model": "2-nodal quintic", "genus": 4},
        )

    ctx.assume("plane-model-image")
    return ctx.cached("genus4-nodal-image", build)


def _nodal_d_schemes(ctx: RunContext):
    def build():
        model = nodal_quintic(2, ctx.char, seed=ctx.seed)
        forms = adjoint_system(model, 2, through=[0])
        image = model_image(
            model,
            forms,
            labels={"kind": "plane-model-image",
                    "model": "2-nodal quintic, one-node adjoints"},
        )
        return model, forms, image

    ctx.assume("plane-model-image")
    return ctx.cached("nodal-d", build)


_INC_SYZ_INSTANCES = (
    ("rnc-3", "rnc 3"),
    ("rnc-4", "rnc 4"),
    ("scroll-1-2", "scroll 1 2"),
    ("scroll-2-2", "scroll 2 2"),
    ("trigonal-g5", None),
)


def _inc_instance(name: str, recipe, ctx: RunContext):
    if recipe is not None:
        scheme = _instance_scheme(recipe, ctx)
        return scheme, _top_strand(scheme), None
    scheme = _trigonal_scheme(ctx)
    return scheme, 2, quadric_hull(scheme)


def _containment_case(name, recipe, cid, which, ctx: RunContext) -> CaseResult:
    scheme, p, hull = _inc_instance(name, recipe, ctx)
    basis = k_p1_cocycle_basis(scheme, p, ctx.entry_budget)
    if which < len(basis):
        alpha = basis[which]
        origin = f"basis class {which}"
    else:
        cid_rng = _case_rng(ctx.seed, cid)
        alpha = _random_class(basis, cid_rng, scheme.char)
        origin = "random combination"
    syz = syzygy_scheme(alpha)
    contains_scheme = all(scheme.ideal.contains(g) for g in syz.scheme.ideal.gens)
    hull_ok = True
    if hull is not None:
        hull_ok = all(hull.ideal.contains(g) for g in syz.scheme.ideal.gens)
    ok = contains_scheme and hull_ok
    computed = {"scheme_inside_syzygy_scheme": contains_scheme,
                "class": alpha.to_json_dict()}
    if hull is not None:
        computed["hull_inside_syzygy_scheme"] = hull_ok
    return _check(
        ok, "every syzygy-scheme generator lies in the instance ideal(s)", computed,
        f"{origin}: containments hold",
        f"{origin}: containment failed",
    )


def _cone_case(name, recipe, cid, ctx: RunContext) -> CaseResult:
    scheme, p, _ = _inc_instance(name, recipe, ctx)
    if p < 2:
        return CaseResult("SKIP", "projection needs p >= 2", None, None)
    basis = k_p1_cocycle_basis(scheme, p, ctx.entry_budget)
    rng = _case_rng(ctx.seed, cid)
    alpha = _random_class(basis, rng, scheme.char)
    syz = syzygy_scheme(alpha)
    warnings: list = []
    pts = _sampled_spanning(scheme, scheme.ring.nvars, rng, warnings)
    if pts is None:
        return CaseResult("FAIL", "could not sample a spanning point set", None, None)
    result = reconstruct_from_projections(alpha, pts)
    warnings.extend(result.warnings)
    inclusions = all(
        all(syz.scheme.ideal.contains(g) for g in cone.gens)
        for (_, cone, _) in result.cones
    )
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


def suite_inc_syz(ctx: RunContext, args) -> list:
    samples = args.samples if args.samples is not None else 3
    if args.variety:
        instances = [(args.variety.replace(" ", "-"), args.variety)]
    else:
        instances = list(_INC_SYZ_INSTANCES)
    cases = []
    for name, recipe in instances:
        scheme, p, _ = _inc_instance(name, recipe, ctx)
        width = len(k_p1_cocycle_basis(scheme, p, ctx.entry_budget))
        for k in range(width + samples):
            cid = f"inc-syz/{name}/class-{k:02d}"
            cases.append(
                Case(cid, lambda n=name, r=recipe, c=cid, w=k: _containment_case(n, r, c, w, ctx))
            )
        cid = f"inc-syz/{name}/cones"
        cases.append(Case(cid, lambda n=name, r=recipe, c=cid: _cone_case(n, r, c, ctx)))
    return cases


_GREEN_GRIDS = {
    "genus4-ci": {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1},
    "genus5-ci": {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1},
    "trigonal-g5": {(0, 0): 1, (1, 1): 3, (2, 1): 2, (1, 2): 2, (2, 2): 3, (3, 3): 1},
}


def _green_instance(name: str, ctx: RunContext) -> EmbeddedScheme:
    if name == "genus4-ci":
        ctx.assume("ci")
        return ctx.cached(name, lambda: complete_intersection((2, 3), ctx.char, seed=ctx.seed))
    if name == "genus5-ci":
        ctx.assume("ci")
        return ctx.cached(name, lambda: complete_intersection((2, 2, 2), ctx.char, seed=ctx.seed))
    return _trigonal_scheme(ctx)


def _green_table_case(name: str, ctx: RunContext) -> CaseResult:
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


def _green_strand_case(name: str, ctx: RunContext) -> CaseResult:
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


def _green_hull_case(cid: str, ctx: RunContext) -> CaseResult:
    scheme = _trigonal_scheme(ctx)
    hull = quadric_hull(scheme)
    ctx.assume("quadric-hull")
    basis = k_p1_cocycle_basis(scheme, 2, ctx.entry_budget)
    rng = _case_rng(ctx.seed, cid)
    classes = list(basis) + [_random_class(basis, rng, scheme.char) for _ in range(3)]
    bad = None
    for i, alpha in enumerate(classes):
        syz = syzygy_scheme(alpha)
        if not all(hull.ideal.contains(g) for g in syz.scheme.ideal.gens):
            bad = i
            break
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


def suite_green_small(ctx: RunContext, args) -> list:
    if args.variety:
        raise InputError("green-small runs a fixed corpus; --variety is not accepted")
    cases = []
    for name in ("genus4-ci", "genus5-ci", "trigonal-g5"):
        cases.append(Case(f"green-small/{name}/table", lambda n=name: _green_table_case(n, ctx)))
        cases.append(Case(f"green-small/{name}/strand", lambda n=name: _green_strand_case(n, ctx)))
    cases.append(
        Case("green-small/trigonal-g5/hull", lambda: _green_hull_case("green-small/trigonal-g5/hull", ctx))
    )
    return cases


def _nodal_quadrics_case(ctx: RunContext) -> CaseResult:
    model, forms, image = _nodal_d_schemes(ctx)
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
    _, _, image = _nodal_d_schemes(ctx)
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
    _, _, image = _nodal_d_schemes(ctx)
    genus4 = _genus4_scheme(ctx)
    k31_d = koszul_dim(image, 3, 1, ctx.entry_budget)
    k21_c = koszul_dim(genus4, 2, 1, ctx.entry_budget)
    ok = k31_d == 0 and k21_c == 0
    return _check(
        ok, {"K_3,1(D)": 0, "K_2,1(C)": 0},
        {"K_3,1(D)": k31_d, "K_2,1(C)": k21_c},
        "vanishing transfers between the nodal curve and its normalization model",
        "expected vanishing failed",
    )


def _nodal_genus_case(ctx: RunContext) -> CaseResult:
    _, _, image = _nodal_d_schemes(ctx)
    genus4 = _genus4_scheme(ctx)
    hd_d = image.ideal.hilbert_data()
    hd_c = genus4.ideal.hilbert_data()
    pa_d = 1 - hd_d(0)
    pa_c = 1 - hd_c(0)
    got = {"D": [hd_d.dimension, hd_d.degree, pa_d], "C": [hd_c.dimension, hd_c.degree, pa_c]}
    want = {"D": [1, 8, 5], "C": [1, 6, 4]}
    return _check(
        got == want, want, got,
        "degrees and arithmetic genera of the pair are as constructed",
        "Hilbert bookkeeping of the pair is off",
    )


def suite_nodal_iso(ctx: RunContext, args) -> list:
    if args.variety:
        raise InputError("nodal-iso runs a fixed corpus; --variety is not accepted")
    return [
        Case("nodal-iso/genus-bookkeeping", lambda: _nodal_genus_case(ctx)),
        Case("nodal-iso/linear-strand", lambda: _nodal_strand_case(ctx)),
        Case("nodal-iso/quadrics-match", lambda: _nodal_quadrics_case(ctx)),
        Case("nodal-iso/vanishing-transfer", lambda: _nodal_vanishing_case(ctx)),
    ]


_APRODU_INSTANCES = (
    ("rnc-3", "rnc 3"),
    ("rnc-4", "rnc 4"),
    ("scroll-1-2", "scroll 1 2"),
    ("scroll-2-2", "scroll 2 2"),
    ("trigonal-g5", None),
)


def _membership_case(name, recipe, cid, ctx: RunContext, points_flag) -> CaseResult:
    if recipe is not None:
        scheme = _instance_scheme(recipe, ctx)
        p = _top_strand(scheme)
    else:
        scheme = _trigonal_scheme(ctx)
        p = 2
    basis = k_p1_cocycle_basis(scheme, p, ctx.entry_budget)
    rng = _case_rng(ctx.seed, cid)
    alpha = _random_class(basis, rng, scheme.char)
    total = points_flag if points_flag is not None else 25
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
    non_members = 0
    on_scheme_all_members = True
    for pt in list(pts) + off_pts:
        res = syz_membership(alpha, pt)  # raises ConsistencyError on route splits
        if res.member:
            members += 1
        else:
            non_members += 1
            if res.point_on_scheme:
                on_scheme_all_members = False
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


def suite_aprodu_proj(ctx: RunContext, args) -> list:
    instances = (
        [(args.variety.replace(" ", "-"), args.variety)]
        if args.variety
        else list(_APRODU_INSTANCES)
    )
    cases = []
    for name, recipe in instances:
        cid = f"aprodu-proj/{name}"
        cases.append(
            Case(cid, lambda n=name, r=recipe, c=cid: _membership_case(n, r, c, ctx, args.points))
        )
    return cases


def _schreyer_value_case(ctx: RunContext) -> CaseResult:
    scheme = _trigonal_scheme(ctx)
    rank_route = koszul_dim(scheme, 2, 1, ctx.entry_budget)
    ideal_route = linear_strand_dim_from_ideal(scheme, 2)
    expected = 2  # genus 5, gonality 3
    ok = rank_route == expected and ideal_route == expected
    return _check(
        ok, expected, {"rank": rank_route, "ideal": ideal_route},
        "extremal strand value equals genus - gonality by both routes",
        "extremal strand value is off",
    )


def _schreyer_scroll_case(cid: str, which: int, ctx: RunContext) -> CaseResult:
    scheme = _trigonal_scheme(ctx)
    hull = quadric_hull(scheme)
    ctx.assume("quadric-hull")
    basis = k_p1_cocycle_basis(scheme, 2, ctx.entry_budget)
    if which < len(basis):
        alpha = basis[which]
    else:
        alpha = _random_class(basis, _case_rng(ctx.seed, cid), scheme.char)
    syz = syzygy_scheme(alpha)
    hd = syz.scheme.ideal.hilbert_data()
    contains_curve = all(scheme.ideal.contains(g) for g in syz.scheme.ideal.gens)
    equals_hull = syz.scheme.ideal.same_ideal(hull.ideal)
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
    scheme = _genus4_scheme(ctx)
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
    _, _, image = _nodal_d_schemes(ctx)
    genus4 = _genus4_scheme(ctx)
    b21_d = koszul_dim(image, 2, 1, ctx.entry_budget)
    hull = quadric_hull(image)
    hd = hull.ideal.hilbert_data()
    k21_c = koszul_dim(genus4, 2, 1, ctx.entry_budget)
    ok = b21_d == 2 and (hd.dimension, hd.degree) == (2, 3) and k21_c == 0
    return _check(
        ok,
        {"b_2,1(D)": 2, "hull_hilbert": [2, 3], "K_2,1(C)": 0},
        {"b_2,1(D)": b21_d, "hull_hilbert": [hd.dimension, hd.degree], "K_2,1(C)": k21_c},
        "hypotheses hold on the nodal curve and the conclusion holds on its model",
        "the implication instance failed",
    )


def suite_schreyer_converse(ctx: RunContext, args) -> list:
    if args.variety:
        raise InputError("schreyer-converse runs a fixed corpus; --variety is not accepted")
    samples = args.samples if args.samples is not None else 3
    cases = [
        Case("schreyer-converse/trigonal-g5/value", lambda: _schreyer_value_case(ctx)),
        Case("schreyer-converse/genus4/quadric", lambda: _schreyer_genus4_case(ctx)),
        Case("schreyer-converse/nodal-implication", lambda: _schreyer_nodal_case(ctx)),
    ]
    for k in range(2 + samples):
        cid = f"schreyer-converse/trigonal-g5/scroll-{k:02d}"
        cases.append(Case(cid, lambda c=cid, w=k: _schreyer_scroll_case(c, w, ctx)))
    return cases


SUITES = {
    "scroll-betti": suite_scroll_betti,
    "ep": suite_ep,
    "reconstruct": suite_reconstruct,
    "inc-syz": suite_inc_syz,
    "green-small": suite_green_small,
    "nodal-iso": suite_nodal_iso,
    "aprodu-proj": suite_aprodu_proj,
    "schreyer-converse": suite_schreyer_converse,
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
    return " ".join(parts)


def cmd_verify(args, argv) -> int:
    ctx = _context(args, argv)
    suite_fn = SUITES.get(args.suite)
    if suite_fn is None:
        raise InputError(
            f"unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}"
        )
    cases = suite_fn(ctx, args)
    if args.case:
        cases = [c for c in cases if c.id == args.case]
        if not cases:
            raise InputError(f"no case named {args.case!r} in suite {args.suite}")
    cases.sort(key=lambda c: c.id)

    def timed(case: Case):
        start = time.time()
        result = case.run()
        return case.id, result, time.time() - start

    if ctx.jobs > 1:
        with ThreadPoolExecutor(max_workers=ctx.jobs) as pool:
            outcomes = list(pool.map(timed, cases))
    else:
        outcomes = [timed(c) for c in cases]
    outcomes.sort(key=lambda t: t[0])

    case_payloads = []
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    first_failure = None
    for cid, result, elapsed in outcomes:
        ctx.case_timings[cid] = elapsed
        counts[result.status] += 1
        entry = {
            "id": cid,
            "status": result.status,
            "detail": result.detail,
            "expected": _jsonable_deep(result.expected),
            "computed": _jsonable_deep(result.computed),
            "warnings": list(result.warnings),
            "replay": _replay_command(args.suite, cid, ctx, args),
        }
        case_payloads.append(entry)
        ctx.warnings.extend(f"{cid}: {w}" for w in result.warnings)
        if result.status == "FAIL" and first_failure is None:
            first_failure = entry
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
    if ctx.json_out:
        _print_json(ctx.report(payload))
    else:
        for entry in case_payloads:
            print(f"{entry['status']:4} {entry['id']} — {entry['detail']}")
            for w in entry["warnings"]:
                print(f"     warning: {w}")
        total = time.time() - ctx.t0
        print(
            f"suite {args.suite}: {verdict} — {counts['PASS']}/{len(outcomes)} passed, "
            f"{counts['SKIP']} skipped ({total:.1f}s)"
        )
        if first_failure is not None:
            print("first divergent case, serialized for replay:")
            print(json.dumps(first_failure, indent=2, sort_keys=True))
    return 0 if verdict == "PASS" else 1


def _jsonable_deep(v):
    if isinstance(v, dict):
        return {str(k): _jsonable_deep(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable_deep(x) for x in v]
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field-char", type=int, default=None, metavar="P",
                        help=f"prime field characteristic (default {DEFAULT_CHAR})")
    common.add_argument("--seed", type=int, default=0, metavar="N",
                        help="seed for every pseudorandom draw (default 0)")
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel case execution for verify (default 1)")
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
    common.add_argument("--entry-budget", type=int, default=None, metavar="N",
                        help=f"max entries of any Koszul matrix (default {DEFAULT_ENTRY_BUDGET})")

    classsel = argparse.ArgumentParser(add_help=False)
    classsel.add_argument("--p", type=int, default=None,
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
    p_coc.add_argument("--p", type=int, default=None, required=True)
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
    p_rec.add_argument("--points", type=int, default=None,
                       help="how many points to sample (default: ambient dimension + 1)")
    p_rec.add_argument("--point", action="append", default=None, metavar="A,B,...",
                       help="explicit point (repeatable; overrides sampling)")
    p_rec.set_defaults(handler=cmd_reconstruct)

    p_res = sub.add_parser("resolve", parents=[common],
                           help="minimal free resolution (independent oracle)")
    p_res.add_argument("source")
    p_res.add_argument("--degree-bound", type=int, default=10)
    p_res.add_argument("--length-bound", type=int, default=None)
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
    p_ver.add_argument("--samples", type=int, default=None,
                       help="pseudorandom classes per instance (suite-specific default)")
    p_ver.add_argument("--points", type=int, default=None,
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
        return args.handler(args, argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
