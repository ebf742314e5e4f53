"""Per-layer spans recorded from outside the program.

The benchmark wraps the public entry points of each syzkit layer by
rebinding them in every module that imported them by name, so calls made
through any of those names open a span.  Spans go on a stack and stay in
memory until the traced pass ends; `layer_metrics` then turns them into
per-function and per-layer totals.

A span's self time is its duration minus the time covered by the wrapped
calls nested directly inside it.  The time a wrapper spends computing its
own counters (matrix shapes, nonzeros, cache hits) is charged to nobody:
it shows up only as tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "syzkit"


# ---------------------------------------------------------------------------
# spans


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Keeps every span of one traced pass in memory, in call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        """`fn` with a span named `name` around every call.

        `counter(args, kwargs)`, when given, runs before the call and
        returns a function that maps the call's result to a dict of counts.
        """
        clock, spans, stack = self.clock, self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            finish = counter(args, kwargs) if counter else None
            span = Span(name, stack[-1] if stack else None, clock())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = clock()
                raise
            else:
                span.end = clock()
                if finish is not None:
                    span.counts = finish(result)
                return result
            finally:
                # also when fn raised, so a caller that catches the error
                # is not charged with the time of the failed call
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += clock() - entered

        wrapper.__wrapped_layer__ = name
        return wrapper


# ---------------------------------------------------------------------------
# counters, taken from argument and return shapes


def _matrix_shape(m) -> tuple[int, int, int]:
    a = np.asarray(m)
    rows, cols = (1, a.size) if a.ndim == 1 else a.shape
    return rows, cols, int(np.count_nonzero(a))


def _rref_counts(args, kwargs):
    rows, cols, nnz = _matrix_shape(args[0])

    def finish(result):
        return {"rows": rows, "entries": rows * cols, "nnz": nnz, "rank": len(result[1])}

    return finish


def _matrix_result_counts(args, kwargs):
    def finish(result):
        rows, cols, nnz = _matrix_shape(result)
        return {"entries": rows * cols, "nnz": nnz}

    return finish


def _basis_counts(args, kwargs):
    return lambda result: {"basis_terms": sum(len(g) for g in result)}


def _cache_counts(args, kwargs):
    ideal = args[0]
    before = len(ideal._nf_cache)
    return lambda result: {"hits": int(len(ideal._nf_cache) == before)}


# ---------------------------------------------------------------------------
# the wrapped functions


@dataclass(frozen=True)
class LayerFunction:
    """One wrapped entry point: `attr` of syzkit.`module` (a dotted
    `Class.method` for methods), and the other syzkit modules that bind the
    same function under the same name."""

    module: str
    attr: str
    binders: tuple = ()
    counter: object = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr.split('.')[-1]}"


LAYERS = (
    LayerFunction("exactalg", "rref", ("koszul",), _rref_counts),
    LayerFunction("exactalg", "kernel_basis", ("koszul", "builders", "syzgeo")),
    LayerFunction("exactalg", "complement_basis", ("koszul", "builders")),
    LayerFunction("exactalg", "in_span", ("syzgeo",)),
    LayerFunction("exactalg", "matrix_inverse", ("syzgeo",)),
    LayerFunction("polyring", "buchberger", (), _basis_counts),
    LayerFunction("polyring", "Ideal.normal_form"),
    LayerFunction("polyring", "Ideal.nf_times_var", (), _cache_counts),
    LayerFunction("polyring", "Ideal.hilbert_data"),
    LayerFunction("polyring", "parse_ideal_text", ("cli",)),
    LayerFunction("koszul", "koszul_matrix", ("syzgeo",), _matrix_result_counts),
    LayerFunction("koszul", "koszul_rank"),
    LayerFunction("koszul", "koszul_dim", ("cli",)),
    LayerFunction("koszul", "betti_table", ("cli",)),
    LayerFunction("koszul", "k_p1_cocycle_basis", ("cli",)),
    LayerFunction("koszul", "linear_strand_dim_from_ideal", ("cli",)),
    LayerFunction("koszul", "minimal_free_resolution", ("cli",)),
    LayerFunction("syzgeo", "syzygy_scheme", ("cli",)),
    LayerFunction("syzgeo", "project_scheme", ("cli",)),
    LayerFunction("syzgeo", "project_class", ("cli",)),
    LayerFunction("syzgeo", "syz_membership", ("cli",)),
    LayerFunction("syzgeo", "reconstruct_from_projections", ("cli",)),
    LayerFunction("builders", "scroll", ("cli",)),
    LayerFunction("builders", "rational_normal_curve", ("cli",)),
    LayerFunction("builders", "complete_intersection", ("cli",)),
    LayerFunction("builders", "nodal_quintic", ("cli",)),
    LayerFunction("builders", "validate_plane_model", ("cli",)),
    LayerFunction("builders", "adjoint_system", ("cli",)),
    LayerFunction("builders", "model_image", ("cli",)),
    LayerFunction("builders", "implicitize_kernel", ("cli",)),
    LayerFunction("builders", "implicitize_eliminate", ("cli",)),
    LayerFunction("builders", "quadric_hull", ("cli",)),
    LayerFunction("builders", "sample_points", ("cli",)),
    LayerFunction("cli", "main"),
)

# The layer metrics the traced run prints, in order: (metric, unit, better).
PER_LAYER = (
    ("exactalg.rref.calls", "count", "lower"),
    ("exactalg.rref.self_s", "s", "lower"),
    ("exactalg.rref.entries", "count", "lower"),
    ("exactalg.rref.nnz", "count", "lower"),
    ("exactalg.rref.max_entries", "count", "lower"),
    ("exactalg.rref.pivot_ratio", "ratio", "higher"),
    ("exactalg.kernel_basis.self_s", "s", "lower"),
    ("exactalg.complement_basis.self_s", "s", "lower"),
    ("exactalg.in_span.calls", "count", "lower"),
    ("polyring.buchberger.calls", "count", "lower"),
    ("polyring.buchberger.self_s", "s", "lower"),
    ("polyring.buchberger.basis_terms", "count", "lower"),
    ("polyring.normal_form.calls", "count", "lower"),
    ("polyring.normal_form.self_s", "s", "lower"),
    ("polyring.nf_times_var.calls", "count", "lower"),
    ("polyring.nf_times_var.hit_ratio", "ratio", "higher"),
    ("koszul.koszul_matrix.calls", "count", "lower"),
    ("koszul.koszul_matrix.self_s", "s", "lower"),
    ("koszul.koszul_matrix.entries", "count", "lower"),
    ("koszul.koszul_matrix.nnz", "count", "lower"),
    ("koszul.minimal_free_resolution.self_s", "s", "lower"),
    ("syzgeo.project_scheme.calls", "count", "lower"),
    ("syzgeo.project_scheme.self_s", "s", "lower"),
    ("syzgeo.syz_membership.self_s", "s", "lower"),
    ("syzgeo.syzygy_scheme.self_s", "s", "lower"),
    ("exactalg.self_s", "s", "lower"),
    ("polyring.self_s", "s", "lower"),
    ("koszul.self_s", "s", "lower"),
    ("syzgeo.self_s", "s", "lower"),
    ("builders.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

# Printed in the traced table but not listed in BENCHMARK.json: overhead is
# a difference of two noisy times and can be negative, and missing is 0
# unless a layer function was removed or renamed.
TRACE_ONLY = (
    ("trace.overhead_s", "s"),
    ("trace.missing", "count"),
)


# ---------------------------------------------------------------------------
# installing and removing the wrappers


@dataclass
class Installed:
    """What `install` changed, so `uninstall` can put it back."""

    bindings: list = field(default_factory=list)  # (owner, attr, original, wrapper)
    missing: list = field(default_factory=list)  # layer functions not found
    stale: list = field(default_factory=list)  # listed binders that no longer bind
    unlisted: list = field(default_factory=list)  # binders found but not listed


def _module(name: str):
    """syzkit.`name`, or None when the package no longer has it."""
    try:
        return importlib.import_module(f"{PACKAGE}.{name}")
    except ModuleNotFoundError:
        return None


def _resolve(module, dotted: str):
    """(owner, attr) for `name` or `Class.name` inside module, or None."""
    if module is None:
        return None
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner, attr


def install(tracer: Tracer, layers=LAYERS) -> Installed:
    """Rebind every listed function to a span-recording wrapper.

    A function that no longer exists is reported as missing, not an error,
    so a later change that removes or renames one still gets traced for
    the rest.  Modules that bind a function without being listed are
    wrapped too and reported, so no call escapes its span."""
    done = Installed()
    for layer in layers:
        found = _resolve(_module(layer.module), layer.attr)
        original = getattr(found[0], found[1], None) if found else None
        if not callable(original):
            done.missing.append(layer.name)
            continue
        wrapper = tracer.wrap(layer.name, original, layer.counter)
        targets = [found]
        for binder in layer.binders:
            module = _module(binder)
            if getattr(module, found[1], None) is original:
                targets.append((module, found[1]))
            else:
                done.stale.append(f"{binder}.{found[1]}")
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in vars(module).items():
                if value is original and (module, attr) not in targets:
                    targets.append((module, attr))
                    done.unlisted.append(f"{name}.{attr}")
        for owner, attr in targets:
            setattr(owner, attr, wrapper)
            done.bindings.append((owner, attr, original, wrapper))
    for owner, attr, _, wrapper in done.bindings:
        if getattr(owner, attr) is not wrapper:
            raise RuntimeError(f"tracing wrapper not installed at {owner!r}.{attr}")
    return done


def uninstall(done: Installed) -> None:
    for owner, attr, original, _ in reversed(done.bindings):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation


def layer_metrics(spans: list, missing=(), traced_wall_s: float = 0.0,
                  untraced_wall_s: float = 0.0) -> dict:
    """{metric: value} for every name in PER_LAYER and TRACE_ONLY."""
    per_fn: dict = {}
    per_layer: dict = {}
    for span in spans:
        agg = per_fn.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += span.self_s
        for key, value in span.counts.items():
            agg[key] = agg.get(key, 0) + value
        if "entries" in span.counts:
            agg["max_entries"] = max(agg.get("max_entries", 0), span.counts["entries"])
        layer = span.name.split(".")[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + span.self_s

    def fn(name: str, key: str):
        return per_fn.get(name, {}).get(key, 0)

    values = {}
    for metric, _, _ in PER_LAYER:
        head, _, key = metric.rpartition(".")
        if head != "trace":
            values[metric] = fn(head, key) if "." in head else per_layer.get(head, 0.0)
    rows = fn("exactalg.rref", "rows")
    values["exactalg.rref.pivot_ratio"] = fn("exactalg.rref", "rank") / rows if rows else 0.0
    calls = fn("polyring.nf_times_var", "calls")
    values["polyring.nf_times_var.hit_ratio"] = (
        fn("polyring.nf_times_var", "hits") / calls if calls else 0.0
    )
    values["trace.wall_s"] = traced_wall_s
    values["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    values["trace.spans"] = len(spans)
    values["trace.missing"] = len(missing)
    return values
