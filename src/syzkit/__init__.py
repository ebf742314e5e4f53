"""Koszul cohomology, graded Betti tables, and syzygy schemes over F_p.

Layers, bottom to top:

- exactalg: sparse exact linear algebra mod p (rank / kernel / spans)
- polyring: graded polynomial rings, Groebner bases, Hilbert data,
  elimination, saturation, embedded schemes
- koszul: Koszul complex matrices, linear-strand cocycles, Betti tables,
  and an independent minimal-free-resolution oracle
- syzgeo: syzygy schemes of linear syzygies, projection of syzygies from
  points, and reconstruction of a syzygy scheme from its projections
- builders: scrolls, rational normal curves, complete intersections,
  nodal plane models and their implicitizations, point sampling
- cli: the `syz` command

All arithmetic is exact, all orderings and bases are canonical, and every
run is deterministic for a fixed (input, characteristic, seed).
"""

from .exactalg import CROSSCHECK_CHAR, DEFAULT_CHAR, FieldSpec
from .errors import (
    BudgetError,
    ConsistencyError,
    InputError,
    SyzkitError,
    VerificationError,
)

__all__ = [
    "FieldSpec",
    "DEFAULT_CHAR",
    "CROSSCHECK_CHAR",
    "SyzkitError",
    "InputError",
    "VerificationError",
    "ConsistencyError",
    "BudgetError",
]

__version__ = "0.1.0"
