"""Acceptance gate: one test, one visible PASS/FAIL line, per criterion.

Run with ``pytest -v tests/test_acceptance.py``; each criterion prints

    criterion N (<short name>): PASS in <t>s (budget <T>s)

as it completes, and fails its assert otherwise.  The checks:

1. scroll linear strands: every scroll with degree <= 5 and dimension
   <= 3 has b_{p,1} = p*C(f, p+1) for 1 <= p <= f and b_{p,2} = 0.
2. syzygy schemes of top linear syzygies cut out the variety again on
   rnc(3), rnc(4), S(1,2), S(2,2), 10 pseudorandom classes each.
3. reconstruction: intersecting the cones over projections from a
   spanning point set reproduces the syzygy scheme, with the one-sided
   inclusion at every individual point.
4. membership route agreement at >= 25 points per instance, on and off
   the syzygy scheme.
5. Koszul route vs minimal-free-resolution oracle on every corpus ideal,
   and on two skew lines (not Cohen-Macaulay) at F_32003 and F_2.
6. small Green-type instances: canonical genus-4/5 grids and the
   trigonal hull containment for every strand class.
7. the 2-nodal-quintic pair: strand equality, the vanishing transfer,
   and the hypotheses=>conclusion instance.
8. property suites: delta^2 = 0, contraction^2 = 0, coboundary/scalar
   invariance (20 perturbations per class), projection nonvanishing
   over spanning samples, and criteria 1-6 repeated at characteristic
   31991 with identical Betti numbers.

Heavy intermediate results (suite reports, resolution grids) are cached
at module level so the two-prime repetition in criterion 8 does not pay
for the default-prime runs twice.
"""

import json
import time

import numpy as np

from syzkit.builders import (
    adjoint_system,
    complete_intersection,
    model_image,
    nodal_quintic,
    rational_normal_curve,
    sample_points,
    scroll,
    scroll_types,
)
from syzkit.cli import main
from syzkit.polyring import EmbeddedScheme, Ideal, PolyRing
from syzkit.koszul import (
    KoszulCocycle,
    betti_table,
    coboundary_rows,
    k_p1_cocycle_basis,
    koszul_matrix,
    minimal_free_resolution,
)
from syzkit.syzgeo import contract, project_class, syzygy_scheme

DEFAULT_CHAR = 32003
CROSSCHECK_CHAR = 31991

_REPORTS: dict = {}
_STRAND_GRIDS: dict = {}


def _finish(capsys, number: int, name: str, ok: bool, t0: float, budget_s: int):
    elapsed = time.time() - t0
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {number} ({name}): {verdict} in {elapsed:.1f}s (budget {budget_s}s)")
    assert ok, f"criterion {number} ({name}) FAILED"
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget ({elapsed:.1f}s)"


def _suite_report(capsys, suite: str, char: int | None = None, extra=()):
    key = (suite, char, tuple(extra))
    if key not in _REPORTS:
        argv = ["verify", suite, "--json", *extra]
        if char is not None:
            argv += ["--field-char", str(char)]
        rc = main(argv)
        out = capsys.readouterr().out
        _REPORTS[key] = (rc, json.loads(out))
    return _REPORTS[key]


def _cases(report) -> dict:
    return {c["id"]: c for c in report["payload"]["cases"]}


def _all_passed(rc, report) -> bool:
    summary = report["payload"]["summary"]
    return (
        rc == 0
        and report["payload"]["result"] == "PASS"
        and summary["failed"] == 0
        and summary["skipped"] == 0
        and summary["passed"] == summary["cases"]
    )


# ---------------------------------------------------------------------------
# corpus for the resolution oracle (criteria 5 and 8)


def _corpus(char: int):
    for e in scroll_types():
        yield "scroll-" + "-".join(map(str, e)), scroll(e, char)
    yield "genus4-ci", complete_intersection((2, 3), char, seed=0)
    yield "genus5-ci", complete_intersection((2, 2, 2), char, seed=0)
    one_node = nodal_quintic(1, char, seed=0)
    yield "trigonal-g5", model_image(one_node, adjoint_system(one_node, 2))
    two_node = nodal_quintic(2, char, seed=0)
    yield "genus4-image", model_image(two_node, adjoint_system(two_node, 2))
    yield "nodal-d", model_image(two_node, adjoint_system(two_node, 2, through=[0]))


def _strand_grid(name: str, scheme, char: int) -> dict:
    """{(p, q): value} with the Koszul and resolution routes asserted
    equal over the window covering the whole resolution."""
    res = minimal_free_resolution(scheme.ideal)
    assert not res.truncated, f"{name}: resolution truncated, not a valid oracle"
    gb = res.graded_betti()
    pmax = res.length()
    qmax = max(d - s for (s, d) in gb)
    table = betti_table(scheme, pmax, qmax)
    grid = {}
    for p in range(pmax + 1):
        for q in range(qmax + 1):
            koszul_value = table.entry(p, q)
            resolution_value = res.strand_entry(p, q)
            assert koszul_value == resolution_value, (
                f"{name} at F_{char}: b_{{{p},{q}}} Koszul {koszul_value} "
                f"!= resolution {resolution_value}"
            )
            if koszul_value:
                grid[(p, q)] = koszul_value
    return grid


def _strand_grids(char: int) -> dict:
    """{instance: grid} over the corpus, each as `_strand_grid`."""
    if char not in _STRAND_GRIDS:
        _STRAND_GRIDS[char] = {
            name: _strand_grid(name, scheme, char) for name, scheme in _corpus(char)
        }
    return _STRAND_GRIDS[char]


def _skew_lines(char: int) -> EmbeddedScheme:
    """Two skew lines in P^3: not Cohen-Macaulay (depth 1, dimension 2),
    so the Koszul route cuts its ring by one linear form only."""
    ring = PolyRing(char, ("x0", "x1", "x2", "x3"))
    return EmbeddedScheme(Ideal(ring, ["x0*x2", "x0*x3", "x1*x2", "x1*x3"]))


# ---------------------------------------------------------------------------
# the eight criteria


def test_criterion_1_scroll_strands(capsys):
    t0 = time.time()
    rc, report = _suite_report(capsys, "scroll-betti")
    ok = _all_passed(rc, report) and report["payload"]["summary"]["cases"] == 15
    _finish(capsys, 1, "scroll linear strands", ok, t0, 60)


def test_criterion_2_syzygy_scheme_equality(capsys):
    t0 = time.time()
    rc, report = _suite_report(capsys, "ep", extra=("--samples", "10"))
    cases = _cases(report)
    per_instance = {}
    for cid in cases:
        if "/class-" in cid:
            instance = cid.split("/")[1]
            per_instance[instance] = per_instance.get(instance, 0) + 1
    ok = (
        _all_passed(rc, report)
        and set(per_instance) == {"rnc-3", "rnc-4", "scroll-1-2", "scroll-2-2"}
        and all(n >= 10 for n in per_instance.values())
    )
    _finish(capsys, 2, "syzygy schemes cut out the variety", ok, t0, 300)


def test_criterion_3_reconstruction(capsys):
    t0 = time.time()
    rc, report = _suite_report(capsys, "reconstruct")
    cases = _cases(report)
    instances = {cid.split("/")[1] for cid in cases}
    ok = (
        _all_passed(rc, report)
        and instances == {"rnc-3", "rnc-4", "scroll-1-2"}
        and all(
            c["computed"]["equal"] and c["computed"]["every_cone_contains"]
            for c in cases.values()
        )
    )
    _finish(capsys, 3, "reconstruction from projections", ok, t0, 300)


def test_criterion_4_membership_routes(capsys):
    t0 = time.time()
    rc, report = _suite_report(capsys, "aprodu-proj")
    cases = _cases(report)
    ok = _all_passed(rc, report) and len(cases) == 5
    for c in cases.values():
        computed = c["computed"]
        ok = ok and computed["points"] >= 25
        # both sides of the membership boundary must actually occur
        ok = ok and computed["members"] > 0 and computed["non_members"] > 0
    _finish(capsys, 4, "membership route agreement", ok, t0, 300)


def test_criterion_5_resolution_oracle(capsys):
    t0 = time.time()
    grids = _strand_grids(DEFAULT_CHAR)  # asserts agreement internally
    ok = len(grids) == 15 + 5
    # spot-frozen values: the twisted cubic and the genus-5 canonical CI
    ok = ok and grids["scroll-3"] == {(0, 0): 1, (1, 1): 3, (2, 1): 2}
    ok = ok and grids["genus5-ci"] == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}
    # a ring that is not Cohen-Macaulay, at a large and the smallest prime
    for char in (DEFAULT_CHAR, 2):
        skew = _strand_grid("skew-lines", _skew_lines(char), char)
        ok = ok and skew == {(0, 0): 1, (1, 1): 4, (2, 1): 4, (3, 1): 1}
    _finish(capsys, 5, "Koszul vs resolution oracle", ok, t0, 600)


def test_criterion_6_green_instances(capsys):
    t0 = time.time()
    rc, report = _suite_report(capsys, "green-small")
    cases = _cases(report)
    ok = _all_passed(rc, report)
    genus4 = cases["green-small/genus4-ci/table"]["computed"]
    ok = ok and genus4.get("1,1") == 1 and "2,1" not in genus4
    genus5 = cases["green-small/genus5-ci/table"]["computed"]
    ok = ok and genus5.get("1,1") == 3 and "2,1" not in genus5
    trigonal = cases["green-small/trigonal-g5/table"]["computed"]
    ok = ok and trigonal.get("2,1") == 2  # = genus - gonality
    ok = ok and cases["green-small/trigonal-g5/hull"]["status"] == "PASS"
    _finish(capsys, 6, "Green desk instances", ok, t0, 600)


def test_criterion_7_nodal_pair(capsys):
    t0 = time.time()
    rc1, nodal = _suite_report(capsys, "nodal-iso")
    rc2, schreyer = _suite_report(capsys, "schreyer-converse")
    ok = _all_passed(rc1, nodal) and _all_passed(rc2, schreyer)
    strand = _cases(nodal)["nodal-iso/linear-strand"]["computed"]
    ok = ok and strand["image"] == strand["hull"] == [3, 2, 0]
    vanishing = _cases(nodal)["nodal-iso/vanishing-transfer"]["computed"]
    ok = ok and vanishing == {"K_3,1(D)": 0, "K_2,1(C)": 0}
    implication = _cases(schreyer)["schreyer-converse/nodal-implication"]["computed"]
    ok = ok and implication == {"b_2,1(D)": 2, "hull_hilbert": [2, 3], "K_2,1(C)": 0}
    _finish(capsys, 7, "nodal pair: strand transfer", ok, t0, 900)


# --- criterion 8: property suites -----------------------------------------


def _differential_squares_to_zero(char: int) -> bool:
    schemes = [
        rational_normal_curve(3, char),
        scroll((2, 1), char),
        complete_intersection((2, 2, 2), char, seed=0),
    ]
    for scheme in schemes:
        for p, q in [(2, 0), (2, 1), (3, 0), (1, 1), (3, 1), (2, 2)]:
            first = np.asarray(koszul_matrix(scheme, p, q))
            second = np.asarray(koszul_matrix(scheme, p - 1, q + 1))
            if first.size and second.size and np.any((second @ first) % char):
                return False
    return True


def _contraction_squares_to_zero(char: int) -> bool:
    for scheme, p in [(rational_normal_curve(3, char), 2), (scroll((2, 2), char), 3)]:
        for alpha in k_p1_cocycle_basis(scheme, p):
            for pt in sample_points(scheme, 4, 11):
                once = contract(pt, alpha)
                twice = contract(pt, KoszulCocycle(scheme, p - 1, once))
                if twice:
                    return False
    return True


def _perturbation_invariance(char: int, perturbations: int = 20) -> bool:
    instances = [
        (rational_normal_curve(3, char), 2),
        (rational_normal_curve(4, char), 3),
        (scroll((2, 2), char), 3),
    ]
    rng = np.random.default_rng(8)
    for scheme, p in instances:
        rows = coboundary_rows(scheme, p).rows
        for alpha in k_p1_cocycle_basis(scheme, p):
            base = syzygy_scheme(alpha).scheme.ideal
            for _ in range(perturbations):
                scaled = alpha.scale(int(rng.integers(1, char)))
                shift = KoszulCocycle.from_vector(
                    scheme, p, rows[int(rng.integers(0, len(rows)))]
                ).scale(int(rng.integers(1, char)))
                perturbed = scaled.add(shift)
                if not syzygy_scheme(perturbed).scheme.ideal.same_ideal(base):
                    return False
    return True


def _projection_nonvanishing(char: int) -> bool:
    instances = [
        (rational_normal_curve(3, char), 2),
        (rational_normal_curve(4, char), 3),
        (scroll((1, 2), char), 2),
        (scroll((2, 2), char), 3),
    ]
    rng = np.random.default_rng(0)
    for scheme, p in instances:
        basis = k_p1_cocycle_basis(scheme, p)
        for trial in range(3):
            coeffs = rng.integers(0, char, size=len(basis))
            while not coeffs.any():
                coeffs = rng.integers(0, char, size=len(basis))
            alpha = basis[0].scale(int(coeffs[0]))
            for b, c in zip(basis[1:], coeffs[1:]):
                alpha = alpha.add(b.scale(int(c)))
            for pt in sample_points(scheme, scheme.ring.nvars, 100 + trial):
                if not project_class(alpha, pt).cocycle.coeffs:
                    return False
    return True


def test_criterion_8_property_suites(capsys):
    t0 = time.time()
    ok = _differential_squares_to_zero(DEFAULT_CHAR)
    ok = ok and _contraction_squares_to_zero(DEFAULT_CHAR)
    ok = ok and _perturbation_invariance(DEFAULT_CHAR)
    ok = ok and _projection_nonvanishing(DEFAULT_CHAR)

    # criteria 1-6 again at the cross-check prime, Betti data compared
    for suite, extra in [
        ("scroll-betti", ()),
        ("ep", ("--samples", "10")),
        ("reconstruct", ()),
        ("aprodu-proj", ()),
        ("green-small", ()),
    ]:
        rc_a, rep_a = _suite_report(capsys, suite, extra=extra)
        rc_b, rep_b = _suite_report(capsys, suite, char=CROSSCHECK_CHAR, extra=extra)
        ok = ok and _all_passed(rc_a, rep_a) and _all_passed(rc_b, rep_b)
        cases_a, cases_b = _cases(rep_a), _cases(rep_b)
        ok = ok and set(cases_a) == set(cases_b)
        for cid in cases_a:
            ok = ok and cases_a[cid]["status"] == cases_b[cid]["status"]
            if suite == "scroll-betti" or cid.endswith(("/dim", "/table", "/strand")):
                # numeric Betti payloads must agree between the primes
                ok = ok and cases_a[cid]["computed"] == cases_b[cid]["computed"]

    grids_default = _strand_grids(DEFAULT_CHAR)
    grids_cross = _strand_grids(CROSSCHECK_CHAR)
    ok = ok and grids_default == grids_cross
    _finish(capsys, 8, "property suites and two-prime cross-check", ok, t0, 1200)
