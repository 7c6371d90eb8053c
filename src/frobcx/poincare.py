"""Coefficient tables of (1 + t + ... + t^{p-1})^d.

The coefficient M_d(m) of t^m in that power counts the d-tuples of base-p
digits summing to m.  These integers drive every counting engine in the
package: they weigh how many ways a digit column can realize a prescribed
carry.  ``build_table`` returns them as a tuple indexed by degree, so a
reader that looks outside [0, d(p-1)] supplies the zero there itself.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import sub

from .basep import Prime, at_least


@lru_cache(maxsize=None, typed=True)
def build_table(p: int, d: int) -> tuple[int, ...]:
    """M_d(0), ..., M_d(d(p-1)), expanded one factor at a time.

    Multiplying by 1 + t + ... + t^{p-1} turns each coefficient into the sum
    of a window of p coefficients of the previous power, padded with p - 1
    zeros at each end: the difference of two of its running prefix sums.
    The table costs O(d^2 p) additions.

    Cached: the table for a given (p, d) is built once and shared by all
    downstream engines.  The cache is typed, so a float d never reaches the
    entry of an int d equal to it: 4.0 raises TypeError whatever came before.
    """
    p, d = Prime(p), at_least(d, 1, "d")
    coeffs = [1]
    for _ in range(d):
        pre = list(accumulate([0] * (p - 1) + coeffs + [0] * (p - 1), initial=0))
        coeffs = list(map(sub, pre[p:], pre))
    return tuple(coeffs)
