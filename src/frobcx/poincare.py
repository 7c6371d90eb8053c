"""Coefficient tables of (1 + t + ... + t^{p-1})^d.

The coefficient of t^m in that power counts the d-tuples of base-p digits
summing to m.  These integers drive every counting engine in the package:
they weigh how many ways a digit column can realize a prescribed carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from operator import sub

from .basep import Prime


@dataclass(frozen=True)
class PoincareTable:
    """All coefficients of (1 + t + ... + t^{p-1})^d, index = degree."""

    p: Prime
    d: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", Prime(self.p))
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if len(self.coeffs) != self.top_degree + 1:
            raise ValueError("coefficient table has wrong length")

    @property
    def top_degree(self) -> int:
        return self.d * (self.p - 1)

    def coeff(self, m: int) -> int:
        """Coefficient of t^m; zero outside [0, d(p-1)]."""
        if 0 <= m <= self.top_degree:
            return self.coeffs[m]
        return 0


@cache
def build_table(p: int, d: int) -> PoincareTable:
    """Expand (1 + t + ... + t^{p-1})^d one factor at a time.

    Multiplying by 1 + t + ... + t^{p-1} turns each coefficient into the sum
    of a window of p coefficients of the previous power, padded with p - 1
    zeros at each end: the difference of two of its running prefix sums.
    The table costs O(d^2 p) additions.

    Cached: the table for a given (p, d) is built once and shared by all
    downstream engines.
    """
    p = Prime(p)
    coeffs = [1]  # the 0th power, so PoincareTable refuses d < 1 before any list of size p
    for _ in range(d):
        pre = list(accumulate([0] * (p - 1) + coeffs + [0] * (p - 1), initial=0))
        coeffs = list(map(sub, pre[p:], pre))
    return PoincareTable(p, d, tuple(coeffs))
