import contextlib
import hashlib
import io
import json
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzkit import cli, koszul
from syzkit.builders import (
    adjoint_system,
    complete_intersection,
    model_image,
    nodal_quintic,
    rational_normal_curve,
    scroll,
)
from syzkit.errors import BudgetError, ConsistencyError, InputError
from syzkit.exactalg import ReducedRows, SparseRows, in_span, rank, rref
from syzkit.koszul import (
    BettiTable,
    KoszulCocycle,
    artinian_reduction,
    betti_table,
    certified_regularity,
    coboundary_rows,
    exterior_basis,
    k_p1_cocycle_basis,
    koszul_dim,
    koszul_matrix,
    koszul_rank,
    koszul_space_dim,
    linear_strand_dim_from_ideal,
    minimal_free_resolution,
    removal_sign,
)
from syzkit.polyring import EmbeddedScheme, Ideal, PolyRing, Polynomial


def dense(m):
    """A SparseRows as a dense object array, for exact products."""
    out = np.zeros((len(m.rows), m.ncols), dtype=object)
    for i, row in enumerate(m.rows):
        for c, v in row.items():
            out[i, c] = v
    return out


@pytest.fixture(scope="module")
def tc():
    ring = PolyRing(32003, ("x0", "x1", "x2", "x3"))
    ideal = Ideal(ring, ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"])
    return EmbeddedScheme(ideal, labels={"kind": "rnc", "degree": 3})


@pytest.fixture(scope="module")
def ci23():
    # complete intersection of a quadric and a cubic in P^3 (canonical genus 4)
    ring = PolyRing(32003, ("x0", "x1", "x2", "x3"))
    ideal = Ideal(
        ring,
        [
            "x0*x3 - x1*x2",
            "x0^3 + x1^3 + x2^3 + x3^3 + x0*x1*x2",
        ],
    )
    return EmbeddedScheme(ideal, labels={"kind": "ci", "degrees": (2, 3)})


def cocycle_class_is_zero(cocycle: KoszulCocycle) -> bool:
    """Does the cocycle represent the zero cohomology class?  It does when
    it lies in the span of the coboundaries."""
    scheme = cocycle.scheme
    if not cocycle.coeffs:
        return True
    cob = coboundary_rows(scheme, cocycle.p)
    return in_span(cocycle.to_vector(), cob.transpose(), scheme.char)


def test_removal_sign():
    assert removal_sign(0) == -1
    assert removal_sign(1) == 1
    assert removal_sign(2) == -1


def test_exterior_basis():
    assert exterior_basis(4, 0) == ((),)
    assert exterior_basis(4, 2)[0] == (0, 1)
    assert len(exterior_basis(4, 2)) == 6
    assert exterior_basis(4, 5) == ()
    assert exterior_basis(4, -1) == ()


def test_koszul_matrix_shapes_twisted_cubic(tc):
    m = np.asarray(koszul_matrix(tc, 1, 1))
    assert m.shape == (7, 16)
    # a 7x16 matrix over a field cannot exceed rank 7; here it is exactly 7
    assert koszul_rank(tc, 1, 1) == 7
    assert koszul_rank(tc, 2, 0) == 6
    assert koszul_dim(tc, 1, 1) == 16 - 7 - 6


def test_differential_squares_to_zero(tc):
    for p, q in [(2, 0), (2, 1), (3, 0), (1, 1), (3, 1)]:
        first = np.asarray(koszul_matrix(tc, p, q))
        second = np.asarray(koszul_matrix(tc, p - 1, q + 1))
        if first.size and second.size:
            assert not np.any((second @ first) % tc.char)


_RANK_SCHEMES = {
    "rnc 3": lambda char: rational_normal_curve(3, char),
    "rnc 4": lambda char: rational_normal_curve(4, char),
    "scroll 1 1": lambda char: scroll((1, 1), char),
    "scroll 2 1": lambda char: scroll((2, 1), char),
    "scroll 1 1 1": lambda char: scroll((1, 1, 1), char),
    "ci 2 3": lambda char: complete_intersection((2, 3), char, seed=1),
    "ci 2 2": lambda char: complete_intersection((2, 2), char, seed=2),
}


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(sorted(_RANK_SCHEMES)),
    st.sampled_from([2, 3, 32003, 2**31 - 1]),
)
def test_koszul_rank_matches_dense_rref(name, char):
    scheme = _RANK_SCHEMES[name](char)
    nv = scheme.ring.nvars
    # p = -1, 0 and nv + 1, and q = -1, give the empty shapes
    for p in range(-1, nv + 2):
        for q in range(-1, 3):
            dense = koszul_matrix(scheme, p, q)
            assert koszul_rank(scheme, p, q) == len(rref(dense, char)[1]), (p, q)


@pytest.mark.parametrize("name", sorted(_RANK_SCHEMES))
def test_koszul_columns_are_marked_reduced_for_their_char(name):
    scheme = _RANK_SCHEMES[name](3)
    for p, q in ((1, 1), (2, 1), (1, 2)):
        columns = koszul._koszul_columns(scheme, p, q)
        assert isinstance(columns, ReducedRows) and columns.char == 3
        assert all(v in (1, 2) for col in columns.rows for v in col.values())


def test_koszul_rank_builds_no_dense_matrix():
    # delta_{4,2} of scroll(2, 2, 1) is 3360 x 1820: dense, it alone takes
    # 49 MB, and its RREF as much again
    scheme = scroll((2, 2, 1))
    tracemalloc.start()
    try:
        assert koszul_rank(scheme, 4, 2) == 1400
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_betti_table_twisted_cubic(tc):
    table = betti_table(tc, 3, 2)
    assert table.entry(0, 0) == 1
    assert table.entry(1, 1) == 3
    assert table.entry(2, 1) == 2
    total = sum(table.entries.values())
    assert total == 1 + 3 + 2  # everything else vanishes
    text = table.text()
    assert "total:" in text and "3" in text


def test_betti_table_json_round_trip(tc):
    table = betti_table(tc, 3, 2)
    blob = json.dumps(table.to_json_dict(), sort_keys=True)
    again = BettiTable.from_json_dict(json.loads(blob))
    assert again.entries == table.entries
    assert (again.char, again.pmax, again.qmax) == (table.char, table.pmax, table.qmax)


def test_strand_matches_ideal_route(tc, ci23):
    for scheme in (tc, ci23):
        for p in range(1, 4):
            assert linear_strand_dim_from_ideal(scheme, p) == koszul_dim(scheme, p, 1)


def test_budget_error(tc):
    with pytest.raises(BudgetError) as err:
        koszul_matrix(tc, 1, 1, entry_budget=10)
    assert "in 4 variables has 7 x 16" in str(err.value)
    # the largest delta built on the cut of the twisted cubic has 4 entries
    betti_table(tc, 3, 2, entry_budget=4)
    with pytest.raises(BudgetError) as err:
        betti_table(tc, 3, 2, entry_budget=3)
    assert "in 2 variables" in str(err.value)


def test_cocycle_basis_twisted_cubic(tc):
    classes = k_p1_cocycle_basis(tc, 1)
    assert len(classes) == 3
    for c in classes:
        assert c.is_cocycle()
        assert not cocycle_class_is_zero(c)
    # determinism
    again = k_p1_cocycle_basis(tc, 1)
    assert [c.coeffs for c in again] == [c.coeffs for c in classes]
    classes2 = k_p1_cocycle_basis(tc, 2)
    assert len(classes2) == 2


def _coordinate_points():
    """The four coordinate points of P^3: h(1) = h(2) = 4, so delta_{2,0}
    (16 x 6 entries) is larger than delta_{1,1} (4 x 16)."""
    ring = PolyRing(32003, ("x0", "x1", "x2", "x3"))
    ideal = Ideal(ring, [f"x{i}*x{j}" for i in range(4) for j in range(i + 1, 4)])
    return EmbeddedScheme(ideal)


def test_cocycle_bases_are_cached_on_the_scheme():
    scheme = _coordinate_points()
    first = k_p1_cocycle_basis(scheme, 1)
    assert len(first) == koszul_dim(scheme, 1, 1)
    first.clear()  # each call hands out its own list
    second = k_p1_cocycle_basis(scheme, 1)
    third = k_p1_cocycle_basis(scheme, 1)
    assert second and second is not third
    assert [c.coeffs for c in second] == [c.coeffs for c in third]
    # a warm cache still checks the budget of both deltas
    k_p1_cocycle_basis(scheme, 1, entry_budget=96)
    for budget, delta in [(63, "delta_(1,1)"), (95, "delta_(2,0)")]:
        with pytest.raises(BudgetError, match=re.escape(delta)):
            k_p1_cocycle_basis(scheme, 1, entry_budget=budget)


def test_each_cocycle_basis_of_a_suite_is_computed_once(monkeypatch):
    """`syz verify ep` at seed 0 asks 44 times for the cocycle bases of
    its 4 instances; the cache on the scheme computes each once."""
    calls = []
    kernel = koszul.kernel_basis
    monkeypatch.setattr(koszul, "kernel_basis", lambda *a: calls.append(1) or kernel(*a))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "ep", "--seed", "0", "--json"]) == 0
    assert len(calls) == 4


def test_cocycle_check_is_exact_at_the_largest_prime():
    # a class plus a random coboundary: its entries are spread over F_p,
    # and with p near 2**31 a row of delta times it sums several products
    # near 2**62, past what int64 holds
    p = 2**31 - 1
    scheme = rational_normal_curve(6, char=p)
    rows = dense(coboundary_rows(scheme, 2))
    rng = np.random.default_rng(1)
    combo = (rng.integers(1, p, size=rows.shape[0]).astype(object) @ rows) % p
    alpha = k_p1_cocycle_basis(scheme, 2)[0]
    big = alpha.add(KoszulCocycle.from_vector(scheme, 2, dict(enumerate(combo))))
    assert big.is_cocycle()
    key = next(iter(big.coeffs))
    broken = KoszulCocycle(scheme, 2, {**big.coeffs, key: big.coeffs[key] + 1})
    assert not broken.is_cocycle()


def _column_sum_is_zero(cocycle):
    """delta_{p,1} of the tensor, summed over the full columns of delta."""
    columns = koszul._koszul_columns(cocycle.scheme, cocycle.p, 1).rows
    image: dict = {}
    for idx, c in cocycle.to_vector().items():
        for r, v in columns[idx].items():
            image[r] = image.get(r, 0) + c * v
    return not any(v % cocycle.scheme.char for v in image.values())


def _delta_by_terms(cocycle):
    """delta_{p,1} of the tensor, summed term by term: sign * c *
    NF(x_i * x_var) over each coefficient and each index i of its wedge,
    with NF from `Ideal.normal_form`.  Returned without its zero entries."""
    scheme = cocycle.scheme
    ring = scheme.ring
    image: dict = {}
    for (wedge, var), c in cocycle.coeffs.items():
        for k, i in enumerate(wedge):
            nf = scheme.ideal.normal_form(ring.var(i) * ring.var(var))
            for m, v in nf.terms.items():
                key = (wedge[:k] + wedge[k + 1 :], m)
                image[key] = image.get(key, 0) + removal_sign(k) * c * v
    return {key: r for key, v in image.items() if (r := v % scheme.char)}


_COCYCLE_SCHEMES = {
    "rnc 3": lambda: rational_normal_curve(3),
    "ci 2 3": lambda: complete_intersection((2, 3), seed=0),
    "scroll 2 1 @3": lambda: scroll((2, 1), 3),
}


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(_COCYCLE_SCHEMES)),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_is_cocycle_matches_the_full_columns(name, p, closed, seed):
    scheme = _COCYCLE_SCHEMES[name]()
    char = scheme.char
    rng = random.Random(seed)
    if closed:
        # classes of the strand plus coboundaries, with random coefficients
        rows = [c.to_vector() for c in k_p1_cocycle_basis(scheme, p)]
        rows += coboundary_rows(scheme, p).rows
        vec: dict = {}
        for row in rows:
            a = rng.randrange(char)
            for k, v in row.items():
                vec[k] = (vec.get(k, 0) + a * v) % char
    else:
        width = len(exterior_basis(scheme.ring.nvars, p)) * scheme.ring.nvars
        vec = {rng.randrange(width): rng.randrange(1, char) for _ in range(rng.randint(1, 6))}
    tensor = KoszulCocycle.from_vector(scheme, p, vec)
    assert tensor.is_cocycle() == _column_sum_is_zero(tensor) == (_delta_by_terms(tensor) == {})
    if closed:
        assert tensor.is_cocycle()
        # one coefficient moved off the cocycle
        key = rng.randrange(len(exterior_basis(scheme.ring.nvars, p)) * scheme.ring.nvars)
        vec[key] = vec.get(key, 0) + rng.randrange(1, char)
        perturbed = KoszulCocycle.from_vector(scheme, p, vec)
        assert perturbed.is_cocycle() == (_delta_by_terms(perturbed) == {})
        assert not perturbed.is_cocycle()


def test_cocycle_vector_round_trip(tc):
    for c in k_p1_cocycle_basis(tc, 2):
        v = c.to_vector()
        again = KoszulCocycle.from_vector(tc, 2, v)
        assert again.coeffs == c.coeffs


def test_cocycle_json_round_trip(tc):
    c = k_p1_cocycle_basis(tc, 1)[0]
    blob = json.dumps(c.to_json_dict(), sort_keys=True)
    again = KoszulCocycle.from_json_dict(tc, json.loads(blob))
    assert again.coeffs == c.coeffs and again.p == 1
    with pytest.raises(InputError):
        KoszulCocycle.from_json_dict(tc, {"p": 1})


def test_cocycle_validation(tc):
    with pytest.raises(InputError):
        KoszulCocycle(tc, 1, {((0, 1), 0): 1})  # wedge length != p
    with pytest.raises(InputError):
        KoszulCocycle(tc, 2, {((1, 0), 0): 1})  # not increasing
    with pytest.raises(InputError):
        KoszulCocycle(tc, 2, {((0, 9), 0): 1})  # out of range
    with pytest.raises(InputError):
        KoszulCocycle(tc, 0, {})


def test_coboundaries_are_cocycles_with_zero_class(tc):
    rows = coboundary_rows(tc, 2)
    assert len(rows.rows) == 4  # Lambda^3 of a 4-dim space
    for row in rows.rows:
        c = KoszulCocycle.from_vector(tc, 2, row)
        assert c.is_cocycle()
        assert cocycle_class_is_zero(c)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_perturbation_keeps_class(seed):
    ring = PolyRing(32003, ("x0", "x1", "x2", "x3"))
    ideal = Ideal(ring, ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"])
    scheme = EmbeddedScheme(ideal)
    rng = np.random.default_rng(seed)
    alpha = k_p1_cocycle_basis(scheme, 2)[0]
    rows = dense(coboundary_rows(scheme, 2))
    combo = (rng.integers(0, 32003, size=rows.shape[0]) @ rows) % 32003
    beta = KoszulCocycle.from_vector(scheme, 2, dict(enumerate(combo)))
    perturbed = alpha.add(beta)
    assert perturbed.is_cocycle()
    diff = perturbed.add(alpha.scale(-1))
    assert cocycle_class_is_zero(diff)
    assert not cocycle_class_is_zero(perturbed)


# -- minimal free resolution oracle -------------------------------------------


def test_resolution_twisted_cubic(tc):
    res = minimal_free_resolution(tc.ideal, degree_bound=8)
    assert not res.truncated
    assert res.modules == [[0], [2, 2, 2], [3, 3]]
    betti = res.graded_betti()
    assert betti == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    for p in range(3):
        for q in range(3):
            assert res.strand_entry(p, q) == koszul_dim(tc, p, q)


def test_resolution_complete_intersection(ci23):
    res = minimal_free_resolution(ci23.ideal, degree_bound=8)
    assert not res.truncated
    assert res.modules == [[0], [2, 3], [5]]
    assert res.strand_entry(1, 1) == 1
    assert res.strand_entry(1, 2) == 1
    assert res.strand_entry(2, 3) == 1
    for p in range(3):
        for q in range(4):
            assert res.strand_entry(p, q) == koszul_dim(ci23, p, q)


def test_resolution_zero_ideal():
    ring = PolyRing(32003, ("x0", "x1"))
    res = minimal_free_resolution(Ideal(ring, []))
    assert res.modules == [[0]]
    assert not res.truncated


def test_resolution_truncation_flag(ci23):
    res = minimal_free_resolution(ci23.ideal, degree_bound=4)
    assert res.truncated  # the degree-5 last syzygy is out of range


@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: rational_normal_curve(3),
         "856a87b54c7a2804c06044e066c9eab7ac234d9a5c87cc908a80ffcd1e609994"),
        (lambda: scroll((2, 1)),
         "a0f51b65d2057f8d65e534d1354ce69942a832c3f81b68d5a91075777313982b"),
        (lambda: scroll((1, 1, 1)),
         "c51cc7e3a38d930a59511c16a5fa412f887edb4700165171c86fe11cfec42c5a"),
        (lambda: complete_intersection((2, 3), seed=0),
         "989e501a6ec11044bcd8b345dcef6e39d90c2ac1766582bb1bfacb96f264fccc"),
        (lambda: scroll((2, 1, 1)),
         "d672c97c5829cdfec5d28d7cc637c1b456a66bada51d149f308c4ece6a9c2d25"),
        (lambda: rational_normal_curve(5),
         "80d8d0a73c1d52f3fc6601692fa4c824b524e240aacdabd15a59384061a4e9f4"),
        (lambda: rational_normal_curve(6),
         "78e3c34d76498a0dd6a1a4e5c504e72a5c4eb9840f3d98e4dd134d0e9dfed80a"),
        (lambda: rational_normal_curve(7),
         "0f4d06549a376f19928c3510643b6d0b03bed4cf32bc08424dcae00e9bcc97f3"),
        (lambda: scroll((3, 3)),
         "8ebb6e9a8f5a1a0bb2aea60786f7cfa3bd99448c1174a9d58d7a4c5fc080dd4c"),
        (lambda: scroll((2, 2, 2)),
         "1de1b18280a6f4aa52b2a404f8f17f7438c3eaaa7e52558e4be808b6ca5bedb0"),
    ],
    ids=[
        "rnc-3", "scroll-2-1", "scroll-1-1-1", "ci-2-3-seed-0", "scroll-2-1-1", "rnc-5",
        "rnc-6", "rnc-7", "scroll-3-3", "scroll-2-2-2",
    ],
)
def test_resolution_maps_pinned(build, digest):
    # the oracle's generator vectors, not only its degrees, are canonical
    scheme = build()
    assert scheme.char == 32003
    res = minimal_free_resolution(scheme.ideal)
    blob = json.dumps({"modules": res.modules, "maps": _dense_strings(res)}, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def _dense_strings(res):
    """Each generator of res.maps as one polynomial string per generator
    of the previous module, zero entries included: the rendering the
    digests above were pinned on."""
    out = []
    for s, gens in enumerate(res.maps):
        rendered = []
        for vec in gens:
            entries = [{} for _ in res.modules[s]]
            for j, m, c in vec:
                entries[j][m] = c
            rendered.append([str(Polynomial(res.ideal.ring, t)) for t in entries])
        out.append(rendered)
    return out


def test_resolution_maps_hold_only_their_terms():
    # rnc 6's maps are mostly zero entries: held as one Polynomial per
    # entry they took 0.56 MB, as their nonzero terms 0.03 MB.  The first
    # call warms the ideal's caches, so the second holds only its result
    ideal = rational_normal_curve(6).ideal
    minimal_free_resolution(ideal)
    tracemalloc.start()
    try:
        res = minimal_free_resolution(ideal)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert res.modules[1:3] == [[2] * 15, [3] * 40]
    assert held < 0.2 * 2**20


def _full_scan(ideal):
    """The oracle with no certified regularity: every step scans up to its
    heuristic cap."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(koszul, "certified_regularity", lambda *args: None)
        return minimal_free_resolution(ideal)


def test_certificate_refuses_below_the_regularity(ci23):
    # a (2, 3) complete intersection has regularity 2 + 3 - 1 = 4
    for ideal in (ci23.ideal, complete_intersection((2, 3), seed=0).ideal):
        assert certified_regularity(ideal, 2, 2) is None
        assert certified_regularity(ideal, 3, 3) is None
        assert certified_regularity(ideal, 4, 4) == 4
        assert certified_regularity(ideal, 3, 6) == 4


def _regularity_rebuilding_each_span(ideal, lo, hi):
    """`certified_regularity` as it was before each degree's span was kept
    across m: J_m and J_{m+1} are built afresh at every m."""
    char = ideal.ring.char
    nv = ideal.ring.nvars
    forms = [[pow(i + 2, v, char) for v in range(nv)] for i in range(1, nv + 1)]

    def times(h, d):
        index = ideal.standard_index(d + 1)
        rows = []
        for u in ideal.standard_monomials(d):
            row = {}
            for v in range(nv):
                for mono, c in ideal.nf_times_var(u, v).items():
                    row[index[mono]] = (row.get(index[mono], 0) + h[v] * c) % char
            rows.append({k: c for k, c in row.items() if c})
        return SparseRows(rows, len(index))

    for m in range(lo, hi + 1):
        full = ideal.hilbert_function(m)
        low, high = {}, {}
        for h in forms:
            if len(low) == full:
                break
            before = len(high)
            if rank(times(h, m), char, high) - before != full - len(low):
                break
            rank(times(h, m - 1), char, low)
        if len(low) == full:
            return m
    return None


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.sampled_from([2, 3, 32003]),
    st.sampled_from(["forms", "monomials", "ci"]),
    st.integers(0, 2**32 - 1),
)
def test_certified_regularity_matches_rebuilding_each_span(nvars, p, kind, seed):
    rng = random.Random(seed)
    ring = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
    degrees = [rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 3))]
    gens = []
    for d in degrees:
        monos = ring.monomials_of_degree(d)
        if kind == "monomials":
            gens.append(ring.monomial(rng.choice(monos)))
        else:
            picks = monos if kind == "ci" else rng.sample(monos, min(3, len(monos)))
            gens.append(ring.from_terms({m: rng.randrange(1, p) for m in picks}))
    ideal = Ideal(ring, gens[: nvars - 1] if kind == "ci" else gens)
    lo = max(degrees)
    for hi in (lo, lo + 2, 2 * lo + 4):
        assert certified_regularity(ideal, lo, hi) == _regularity_rebuilding_each_span(ideal, lo, hi)


def test_certified_regularity_matches_rebuilding_each_span_on_refused_f2_ideal():
    # the ideal of test_refused_certificate_keeps_the_truncation_flag
    ring = PolyRing(2, ("x0", "x1", "x2", "x3"))
    ideal = Ideal(
        ring,
        [
            "x1^2*x2 + x1^2*x3 + x2*x3^2",
            "x0^2*x3 + x0*x3^2 + x2*x3^2",
            "x0^2*x2 + x2^3 + x0*x2*x3",
        ],
    )
    for lo, hi in ((3, 3), (3, 6), (3, 12)):
        assert certified_regularity(ideal, lo, hi) is None
        assert _regularity_rebuilding_each_span(ideal, lo, hi) is None


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.sampled_from([2, 3, 32003]),
    st.sampled_from(["forms", "monomials", "ci"]),
    st.integers(0, 2**32 - 1),
)
def test_certified_cap_keeps_the_full_scan(nvars, p, kind, seed):
    rng = random.Random(seed)
    ring = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
    degrees = [rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 3))]
    gens = []
    for d in degrees:
        monos = ring.monomials_of_degree(d)
        if kind == "monomials":
            gens.append(ring.monomial(rng.choice(monos)))
        else:
            # "ci": every coefficient nonzero and at most nvars - 1 forms, so
            # over a large field a regular sequence; "forms": a few terms each
            picks = monos if kind == "ci" else rng.sample(monos, min(3, len(monos)))
            gens.append(ring.from_terms({m: rng.randrange(1, p) for m in picks}))
    if kind == "ci":
        gens = gens[: nvars - 1]
    ideal = Ideal(ring, gens)
    certified = []

    def spy(*args):
        certified.append(certified_regularity(*args))
        return certified[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(koszul, "certified_regularity", spy)
        capped = minimal_free_resolution(ideal)
    full = _full_scan(ideal)
    assert capped.modules == full.modules
    assert capped.maps == full.maps
    assert capped.truncated == full.truncated
    if certified and certified[0] is not None and not full.truncated:
        # reg(I) = max_s (top degree of F_s) - s + 1, and m-regular means m >= reg(I)
        assert certified[0] >= max(max(degs) - s + 1 for s, degs in enumerate(full.modules) if s)


@pytest.mark.parametrize(
    "build",
    [
        lambda: scroll((2, 1), 2),
        lambda: complete_intersection((2, 2, 2), char=2),
        lambda: complete_intersection((2, 3), char=3),
    ],
    ids=["scroll-2-1-p2", "ci-2-2-2-p2", "ci-2-3-p3"],
)
def test_refused_certificate_scans_as_before(build):
    # the fixed forms fail the criterion here, so the oracle keeps the
    # heuristic cap and its output is the full scan's
    scheme = build()
    res = minimal_free_resolution(scheme.ideal)
    top = max(res.modules[1])
    assert certified_regularity(scheme.ideal, top, 2 * top) is None
    full = _full_scan(scheme.ideal)
    assert (res.modules, res.maps, res.truncated) == (full.modules, full.maps, full.truncated)
    assert not res.truncated


def test_refused_certificate_keeps_the_truncation_flag():
    # over F_2 the fixed forms refuse this ideal and the heuristic cap cuts
    # its resolution short: the Hilbert numerator is
    # 1 - 3t^3 + 3t^6 + t^7 - 2t^8, which the degrees found do not reach,
    # and the oracle must say so rather than claim completeness
    ring = PolyRing(2, ("x0", "x1", "x2", "x3"))
    ideal = Ideal(
        ring,
        [
            "x1^2*x2 + x1^2*x3 + x2*x3^2",
            "x0^2*x3 + x0*x3^2 + x2*x3^2",
            "x0^2*x2 + x2^3 + x0*x2*x3",
        ],
    )
    assert certified_regularity(ideal, 3, 12) is None
    res = minimal_free_resolution(ideal, degree_bound=30)
    assert res.modules == [[0], [3, 3, 3], [6, 6, 6], [9]]
    assert res.truncated is True


def test_oracle_reads_no_koszul_code(tc, ci23):
    def refuse(*args, **kwargs):
        raise AssertionError("the resolution oracle called the Koszul route")

    with pytest.MonkeyPatch.context() as mp:
        for name in (
            "koszul_rank", "_koszul_columns", "koszul_matrix", "koszul_dim", "artinian_reduction"
        ):
            mp.setattr(koszul, name, refuse)
        assert minimal_free_resolution(tc.ideal).modules == [[0], [2, 2, 2], [3, 3]]
        assert minimal_free_resolution(ci23.ideal).modules == [[0], [2, 3], [5]]


def test_composition_check_catches_a_wrong_generator(tc, monkeypatch):
    # the twisted cubic's first syzygies all come from one complement call
    # (degree 2); perturb one coefficient of the next nonempty one, a
    # second syzygy, so only the composition check can notice
    real = koszul.complement_basis
    nonempty = []

    def perturbed(sub, full, p):
        out = real(sub, full, p)
        if out.rows:
            nonempty.append(out)
            if len(nonempty) == 2:
                row = dict(out.rows[0])
                k = max(row)
                row[k] = (row[k] + 1) % p or 1
                out.rows[0] = row
        return out

    monkeypatch.setattr(koszul, "complement_basis", perturbed)
    with pytest.raises(ConsistencyError, match="compose"):
        minimal_free_resolution(tc.ideal)


@pytest.mark.parametrize(
    "width, row, message",
    [
        # step 2, degree 3: F_1 = S(-2) + S(-3) has the coordinates x_v e_0
        # and the constant e_1, so a term at e_1 is a unit entry
        (5, {4: 1}, "unit entry"),
        # step 1, degree 2: x0^2 is not in the ideal
        (10, {0: 1}, "not in the ideal"),
    ],
    ids=["unit-entry", "outside-the-ideal"],
)
def test_oracle_checks_catch_a_bad_generator(ci23, monkeypatch, width, row, message):
    real = koszul.complement_basis
    done = []

    def with_bad_row(sub, full, p):
        out = real(sub, full, p)
        if full.ncols == width and not done:
            done.append(row)
            out = SparseRows(out.rows + [row], out.ncols)
        return out

    monkeypatch.setattr(koszul, "complement_basis", with_bad_row)
    with pytest.raises(ConsistencyError, match=message):
        minimal_free_resolution(ci23.ideal)


# -- the Artinian reduction ------------------------------------------------------


def _table_on_the_ring_itself(ideal, pmax, qmax):
    """The Betti table with no reduction: every rank over R/I."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(koszul, "artinian_reduction", lambda scheme: scheme)
        return betti_table(EmbeddedScheme(ideal), pmax, qmax)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.sampled_from([2, 3, 32003]),
    st.sampled_from(["forms", "monomials"]),
    st.integers(0, 2**32 - 1),
)
def test_reduction_keeps_the_betti_table(nvars, p, kind, seed):
    rng = random.Random(seed)
    ring = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
    gens = []
    for _ in range(rng.randint(1, 4)):
        monos = ring.monomials_of_degree(rng.choice((2, 3)))
        if kind == "monomials":
            gens.append(ring.monomial(rng.choice(monos)))
        else:
            picks = rng.sample(monos, min(rng.randint(1, 4), len(monos)))
            gens.append(ring.from_terms({m: rng.randrange(1, p) for m in picks}))
    ideal = Ideal(ring, gens)
    scheme = EmbeddedScheme(Ideal(ring, gens))
    qmax = 4 if nvars <= 4 else 3
    assert betti_table(scheme, nvars, qmax).entries == (
        _table_on_the_ring_itself(ideal, nvars, qmax).entries
    )
    cut = artinian_reduction(scheme)
    krull = scheme.hilbert_data().dimension + 1
    assert scheme.ideal.krull_dimension() == krull
    assert nvars - min(krull, nvars - 1) <= cut.ring.nvars <= nvars
    assert cut.ideal.hilbert_series_numerator() == scheme.ideal.hilbert_series_numerator()


@pytest.mark.parametrize(
    "build",
    [
        lambda: rational_normal_curve(4),
        lambda: scroll((2, 1)),
        lambda: complete_intersection((2, 3), seed=0),
        lambda: complete_intersection((2, 2, 2), seed=0),
    ],
    ids=["rnc-4", "scroll-2-1", "ci-2-3", "ci-2-2-2"],
)
def test_cohen_macaulay_rings_become_artinian(build):
    scheme = build()
    cut = artinian_reduction(scheme)
    assert cut is artinian_reduction(scheme)  # cached on the scheme
    krull = scheme.hilbert_data().dimension + 1
    assert cut.ring.nvars == scheme.ring.nvars - krull
    assert cut.ideal.hilbert_series_numerator() == scheme.ideal.hilbert_series_numerator()
    assert cut.hilbert_data().dimension == -1


@pytest.mark.parametrize("char", [2, 32003])
def test_skew_lines_are_cut_by_one_form(char):
    # (x0, x1) cap (x2, x3): Krull dimension 2 but depth 1, so the second
    # form always fails and the table is that of the ring cut once
    ring = PolyRing(char, ("x0", "x1", "x2", "x3"))
    ideal = Ideal(ring, ["x0*x2", "x0*x3", "x1*x2", "x1*x3"])
    scheme = EmbeddedScheme(ideal)
    assert scheme.hilbert_data().dimension + 1 == 2
    assert artinian_reduction(scheme).ring.nvars == 3
    table = betti_table(scheme, 4, 3)
    assert table.entries == {(0, 0): 1, (1, 1): 4, (2, 1): 4, (3, 1): 1}
    assert table.entries == _table_on_the_ring_itself(ideal, 4, 3).entries


def _cut_by_change_of_coordinates(ideal, keep):
    """The cut of `artinian_reduction` as it was computed before it
    substituted into the kept variables: x_{keep+j} -> x_{keep+j} + l_j by
    an n x n lower-unitriangular change, then every term in x_keep.. dropped."""
    ring = ideal.ring
    nv, char = ring.nvars, ring.char
    matrix = [[int(i == j) for j in range(nv)] for i in range(nv)]
    for j in range(nv - keep):
        matrix[keep + j][:keep] = [pow(j + 1, v + 1, char) for v in range(keep)]
    return [
        {m[:keep]: c for m, c in g.terms.items() if not any(m[keep:])}
        for g in ideal.change_coordinates(matrix).gens
    ]


def _cut_instances(char):
    for e in ((3,), (4,), (1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1, 1), (2, 2, 2)):
        yield f"scroll {e}", scroll(e, char)
    for degrees in ((2, 3), (2, 2, 2), (3, 3)):
        yield f"ci {degrees}", complete_intersection(degrees, char, seed=0)
    ring = PolyRing(char, ("x0", "x1", "x2", "x3"))
    yield "skew lines", EmbeddedScheme(Ideal(ring, ["x0*x2", "x0*x3", "x1*x2", "x1*x3"]))
    two_node = nodal_quintic(2, char, seed=0)
    yield "nodal image", model_image(two_node, adjoint_system(two_node, 2, through=[0]))


@pytest.mark.parametrize("char", [2, 3, 7, 32003])
def test_cut_substitutes_as_the_change_of_coordinates_did(char):
    # every cut tried, the one kept and those refused, has the generators
    # of the old route term for term
    tried = []
    real = Ideal.restrict

    def spy(ideal, ring, matrix):
        tried.append((ideal, ring.nvars, real(ideal, ring, matrix)))
        return tried[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Ideal, "restrict", spy)
        for name, scheme in _cut_instances(char):
            before = len(tried)
            cut = artinian_reduction(scheme)
            assert len(tried) > before or cut is scheme, name
            for ideal, keep, got in tried[before:]:
                want = [g for g in _cut_by_change_of_coordinates(ideal, keep) if g]
                assert [g.terms for g in got.gens] == want, (name, keep)
            if cut is not scheme:
                assert cut.ideal is tried[-1][2]


def test_reduction_changes_no_coordinates(tc, ci23):
    def refuse(*args, **kwargs):
        raise AssertionError("the reduction called Ideal.change_coordinates")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Ideal, "change_coordinates", refuse)
        for scheme in (tc, ci23, scroll((2, 1)), complete_intersection((2, 2, 2), 2, seed=0)):
            cut = artinian_reduction(scheme)
            assert cut.ring.nvars < scheme.ring.nvars
            assert cut.ideal.hilbert_series_numerator() == scheme.ideal.hilbert_series_numerator()


def test_zero_ideal_keeps_one_variable():
    ring = PolyRing(32003, ("x0", "x1", "x2"))
    scheme = EmbeddedScheme(Ideal(ring, []))
    cut = artinian_reduction(scheme)
    assert cut.ring.nvars == 1 and not cut.ideal.gens
    assert betti_table(scheme, 3, 3).entries == {(0, 0): 1}


def test_koszul_space_dim_edges(tc):
    assert koszul_space_dim(tc, -1, 1) == 0
    assert koszul_space_dim(tc, 5, 1) == 0
    assert koszul_space_dim(tc, 2, -1) == 0
    assert koszul_dim(tc, 0, 0) == 1
    assert koszul_dim(tc, 0, 1) == 0
    assert koszul_dim(tc, 3, 1) == 0
