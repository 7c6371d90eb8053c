"""Linear transfer recursion for the generator-count sequence.

Group the basis monomials of level e by their top interior carry.  Moving
from level e to level e+1 prepends one digit column, and the number of ways
to prepend a column that turns carry-in j into carry-out i is the
coefficient M_d(p*i - j + p - 1) of the digit-count polynomial.  The census
vector of counts by carry therefore evolves linearly:

    X_0[i] = M_d(p*i + p - 1),          i = 1..d-2   (level 2 census)
    X_{n+1} = U X_n,                    U[i][j] = M_d(p*i - j + p - 1)
    c_{d,e} = sum_i M_d(p - 1 - i) * X_{e-2}[i],     e >= 2,

with the two degenerate levels handled directly: c_{d,0} = 0, c_{d,1} =
comb(d + p - 2, p - 1) (every monomial of degree p - 1 qualifies), and
c_{d,e} = 0 for d <= 2, e >= 2 (no positive interior carry is possible).

One term costs O(log e) matrix products by binary powering of U, on
integers that grow to about e * log2(rho) bits, rho the spectral radius.
The whole sequence up to emax is one stepwise sweep of emax
matrix-vector products, since every term has to be emitted.  The sweep
runs on ints for library callers and on exact decimals for the CLI:
CPython's int-to-str conversion takes time quadratic in the digit count,
while a Decimal, stored in base-10^19 limbs, prints in linear time and to
the same string.  The same product ``_apply`` also runs the power steps
and the characteristic polynomial in ``spectral``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from math import comb

from .basep import Prime
from .poincare import build_table


@dataclass(frozen=True)
class TransferSystem:
    """Matrix U, seed census x0 and top-level weights for one (p, d)."""

    p: Prime
    d: int
    matrix: tuple[tuple[int, ...], ...]
    x0: tuple[int, ...]
    weights: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.d - 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", Prime(self.p))
        n = self.dim
        if n < 1:
            raise ValueError("transfer systems exist for d >= 3 only")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError("matrix must be (d-2) x (d-2)")
        if len(self.x0) != n or len(self.weights) != n:
            raise ValueError("x0 and weights must have length d-2")


def build_system(p: int, d: int) -> TransferSystem:
    """Assemble the transfer system for (p, d), d >= 3."""
    p = Prime(p)
    if d < 3:
        raise ValueError(
            "no transfer system for d <= 2; counts there are comb(d+p-2, p-1) "
            "at e = 1 and 0 for e >= 2"
        )
    n = d - 2
    md = build_table(p, d).coeff
    matrix = tuple(
        tuple(md(p * i - j + p - 1) for j in range(1, n + 1)) for i in range(1, n + 1)
    )
    x0 = tuple(md(p * i + p - 1) for i in range(1, n + 1))
    weights = tuple(md(p - 1 - i) for i in range(1, n + 1))
    return TransferSystem(p, d, matrix, x0, weights)


def _apply(matrix: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    return [sum(u * v for u, v in zip(row, x)) for row in matrix]


def _mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    columns = tuple(zip(*b))
    return [_apply(columns, row) for row in a]


def state(system: TransferSystem, e: int) -> tuple[int, ...]:
    """The census vector U^e x0, by binary powering of U.

    Bits of e are read from the lowest: x takes a factor U^(2^k) for every
    set bit k, which is sound because all powers of U commute.
    """
    if e < 0:
        raise ValueError("e must be >= 0")
    x, power = list(system.x0), system.matrix
    while e:
        if e & 1:
            x = _apply(power, x)
        e >>= 1
        if e:  # skip the last square: nothing uses it, and it is the costliest
            power = _mul(power, power)
    return tuple(x)


def complexity_term(p: int, d: int, e: int) -> int:
    """The generator count c_{d,e}, via the transfer recursion."""
    p = Prime(p)
    if d < 1:
        raise ValueError("d must be >= 1")
    if e < 0:
        raise ValueError("e must be >= 0")
    if e == 0:
        return 0
    if e == 1:
        return comb(d + p - 2, p - 1)
    if d <= 2:
        return 0
    system = build_system(p, d)
    x = state(system, e - 2)
    return sum(w * v for w, v in zip(system.weights, x))


@dataclass(frozen=True)
class ComplexityReport:
    """Counts c_e and their partial sums k_e for e = 0..emax."""

    p: Prime
    d: int
    engine: str
    c: tuple[int, ...]
    k: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", Prime(self.p))
        if not self.c or self.c[0] != 0:
            raise ValueError("c must start with c_0 = 0")
        if any(x < 0 for x in self.c):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "k", tuple(accumulate(self.c)))

    @property
    def emax(self) -> int:
        return len(self.c) - 1


def sweep(
    p: int, d: int, emax: int, system: TransferSystem | None = None, number=int
) -> list:
    """The counts c_0..c_emax, by one incremental sweep of the recursion.

    The sweep only adds and multiplies, so it runs in any number type that
    ints mix with: ``number`` converts c_1 and x0, and every later count is
    computed from those.  ``number=decimal.Decimal`` is exact only under a
    context that cannot round.  ``system`` replaces the one
    ``build_system(p, d)`` would assemble; it must be for the same (p, d).
    """
    p = Prime(p)
    if d < 1:
        raise ValueError("d must be >= 1")
    if emax < 0:
        raise ValueError("emax must be >= 0")
    if system is not None and (system.p, system.d) != (p, d):
        raise ValueError(
            f"system is for (p={system.p}, d={system.d}), not (p={p}, d={d})"
        )
    c = [0] * (emax + 1)
    if emax >= 1:
        c[1] = number(comb(d + p - 2, p - 1))
    if d >= 3 and emax >= 2:
        system = system or build_system(p, d)
        x = [number(v) for v in system.x0]
        c[2] = sum(w * v for w, v in zip(system.weights, x))
        for e in range(3, emax + 1):
            x = _apply(system.matrix, x)
            c[e] = sum(w * v for w, v in zip(system.weights, x))
    return c


def complexity_sequence(p: int, d: int, emax: int) -> ComplexityReport:
    """Counts for e = 0..emax as ints, by ``sweep``."""
    return ComplexityReport(p, d, "transfer", tuple(sweep(p, d, emax)))
