"""Counting basis monomials by direct enumeration and by carry vectors.

Fix a prime p, a number of variables d, and a level e >= 1.  Among the
monomials of total degree p^e - 1 in d variables, the basis monomials are
those whose exponents (a_1, ..., a_d) satisfy, for every 1 <= e1 < e,

    (a_1 mod p^e1) + ... + (a_{d-1} mod p^e1) >= p^e1.

Equivalently (and tested as an invariant): adding all d exponents in base p
produces a strictly positive carry out of every digit position below the
top.  This module counts them two independent ways:

* ``count_basis_enumeration`` counts the compositions of p^e - 1 that
  pass the truncation inequalities, using nothing but the inequalities.
  Prefixes with the same degree left and the same truncated sums (capped
  at p^e1) have the same completions, so it counts distinct prefix states
  rather than compositions, and counts the last free coordinate in closed
  form.  Its cost is the number of distinct states times O(e^2).  It knows
  nothing of carries, so it stays the assumption-free reference the
  structured engines are checked against.

* ``count_basis_carryvectors`` sums, over all possible interior carry
  vectors, the number of digit matrices realizing them.  Each digit column
  with carry-in j and carry-out i can be chosen in M_d(p*i - j + p - 1)
  ways, where M_d is the coefficient table of (1 + t + ... + t^{p-1})^d,
  so the count is a product of table lookups summed over (d_0, ...,
  d_{e-2}) in [1, d-2]^{e-1}.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Iterator

from .basep import ExponentVector, Prime
from .errors import GuardExceeded
from .poincare import build_table

DEFAULT_MAX_COMPOSITIONS = 10**8
DEFAULT_MAX_CARRYVECTORS = 10**8


def composition_count(total: int, parts: int) -> int:
    """Number of compositions of ``total`` into ``parts`` nonnegative parts."""
    if total < 0 or parts < 1:
        raise ValueError("need total >= 0 and parts >= 1")
    return comb(total + parts - 1, parts - 1)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield every composition of ``total`` into ``parts`` nonnegative parts.

    Colexicographic order, generated by an in-place successor: move one
    unit from the leftmost positive entry rightward and dump its remainder
    back into the first slot.  No recursion, O(parts) memory.
    """
    if total < 0 or parts < 1:
        raise ValueError("need total >= 0 and parts >= 1")
    a = [0] * parts
    a[0] = total
    while True:
        yield tuple(a)
        j = 0
        while j < parts - 1 and a[j] == 0:
            j += 1
        if j == parts - 1:
            return
        v = a[j]
        a[j] = 0
        a[0] = v - 1
        a[j + 1] += 1


def is_basis_monomial(v: ExponentVector) -> bool:
    """Test the truncation inequalities for one exponent vector.

    The truncated sums run over the first d-1 coordinates.  Summing all d
    accepts exactly the same vectors: the omitted coordinate contributes
    less than p^e1, while a passing sum is congruent to -1 and so at least
    2*p^e1 - 1.
    """
    coords = v.a[:-1]
    p = v.p
    for e1 in range(1, v.e):
        q = p**e1
        if sum(x % q for x in coords) < q:
            return False
    return True


def _count_last_coordinate(rem: int, sums: tuple[int, ...], pw: list[int]) -> int:
    """Count m in [0, rem] with (m mod pw[t]) + sums[t] >= pw[t] for every t.

    ``pw`` is [p, p^2, ..., p^(e-1)] and each ``sums[t]`` lies in
    [0, pw[t]].  Only m mod p^(e-1) matters, so whole periods of p^(e-1)
    each hold the same number of accepted m.  For m below p^k, level k
    asks m >= p^k - sums[k-1] and the lower levels see only m mod p^(k-1),
    so the count over [0, n) peels one base-p block per level: O(e) per
    count, O(e^2) with the per-level counts it needs.
    """
    p = pw[0]
    low = [q - s for q, s in zip(pw, sums)]
    whole = [1]  # whole[k]: accepted m in [0, p^k) at levels 1..k
    below = [0]  # below[k]: accepted m in [0, low[k-1]) at levels 1..k-1

    def accepted(k: int, n: int) -> int:
        """Accepted m in [0, n) at levels 1..k."""
        total = 0
        while k:
            full, n = divmod(n, pw[k - 1])
            total += full * whole[k]
            if n <= low[k - 1]:
                return total
            total -= below[k]
            k -= 1
        return total + n

    for k in range(1, len(pw) + 1):
        below.append(accepted(k - 1, low[k - 1]))
        whole.append(p * whole[k - 1] - below[k])
    return accepted(len(pw), rem + 1)


def count_basis_enumeration(
    p: int,
    d: int,
    e: int,
    *,
    max_compositions: int = DEFAULT_MAX_COMPOSITIONS,
) -> int:
    """Count the compositions of p^e - 1 that pass the truncation inequalities.

    Raises GuardExceeded before any work if the number of compositions
    exceeds ``max_compositions``.

    Only the first d-1 coordinates enter the inequalities (the last is
    forced by the degree).  After a prefix of them, the completions that
    pass depend only on the degree left and on each truncated sum, and a
    sum that has reached p^e1 stays at or above it, so it is capped there.
    The first d-2 coordinates are added one at a time to a table
    {(degree left, capped sums): number of prefixes}; the values of the
    last free coordinate that pass are then counted in closed form for
    each entry.  Cost: the number of distinct states times O(e^2), where
    the number of compositions bounds the states.
    """
    p = Prime(p)
    if d < 1:
        raise ValueError("d must be >= 1")
    if e < 1:
        raise ValueError("e must be >= 1")
    n_total = p**e - 1
    needed = composition_count(n_total, d)
    if needed > max_compositions:
        raise GuardExceeded("enumeration of compositions", needed, max_compositions)

    if e == 1:
        # no interior truncation levels: every composition qualifies
        return needed
    if d == 1:
        # the single composition (p^e - 1,) has no first d-1 coordinates
        return 0

    pw = [p**t for t in range(1, e)]
    states = {(n_total, (0,) * (e - 1)): 1}
    for _ in range(d - 2):
        grown: dict[tuple[int, tuple[int, ...]], int] = {}
        for (rem, sums), n in states.items():
            for a in range(rem + 1):
                key = (rem - a, tuple(min(s + a % q, q) for s, q in zip(sums, pw)))
                grown[key] = grown.get(key, 0) + n
        states = grown
    return sum(
        n * _count_last_coordinate(rem, sums, pw) for (rem, sums), n in states.items()
    )


def count_basis_carryvectors(
    p: int,
    d: int,
    e: int,
    *,
    max_carryvectors: int = DEFAULT_MAX_CARRYVECTORS,
) -> int:
    """Count basis monomials by summing over interior carry vectors.

    Each interior carry d_n must lie in [1, d-2]: positive because basis
    monomials are exactly those with positive interior carries, at most
    d-2 because d digits below p plus a carry below d-1 stay below
    (d-1)p + p - 1.  Cost is (d-2)^(e-1) products of e table lookups,
    guarded by ``max_carryvectors``.
    """
    p = Prime(p)
    if d < 3:
        raise ValueError(
            "carry-vector counting needs d >= 3 (for d <= 2 the count is 0 for e >= 2)"
        )
    if e < 2:
        raise ValueError(
            "carry-vector counting needs e >= 2 (at e = 1 the count is comb(d+p-2, p-1))"
        )
    needed = (d - 2) ** (e - 1)
    if needed > max_carryvectors:
        raise GuardExceeded("carry-vector sum", needed, max_carryvectors)

    md = build_table(p, d).coeff
    total = 0
    for vec in product(range(1, d - 1), repeat=e - 1):
        prev = 0
        term = 1
        for dn in vec:
            term *= md(p * dn - prev + p - 1)
            if term == 0:
                break
            prev = dn
        else:
            total += term * md(p - 1 - prev)
    return total
