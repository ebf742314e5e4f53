"""The benchmark's traced pass (`bench/run.py --trace 1`) on row-form
results: its counters call `np.asarray` on the matrix `rref` gets and on
the one `koszul_matrix` returns, so both must stay dense int rows."""

import sys
from pathlib import Path

import pytest

from syzkit.koszul import k_p1_cocycle_basis, linear_strand_dim_from_ideal
from syzkit.polyring import EmbeddedScheme, Ideal, PolyRing
from syzkit.syzgeo import syz_membership

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_traced_rref_and_koszul_matrix_count_their_entries(tracing):
    ring = PolyRing(32003, ("x0", "x1", "x2", "x3"))
    tc = EmbeddedScheme(Ideal(ring, ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"]))
    alpha = k_p1_cocycle_basis(tc, 2)[0]
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        assert linear_strand_dim_from_ideal(tc, 2) == 2
        # a point off the curve: the contracted class is nonzero, so
        # route B builds the moved scheme's Koszul matrix
        assert not syz_membership(alpha, (1, 1, 1, 0)).member
    finally:
        tracing.uninstall(installed)
    assert not installed.missing and not installed.stale and not installed.unlisted
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span)
    for name in ("exactalg.rref", "koszul.koszul_matrix"):
        assert spans.get(name), f"no {name} span"
        assert all(span.counts["entries"] > 0 for span in spans[name]), name
        assert all(span.counts["nnz"] > 0 for span in spans[name]), name
