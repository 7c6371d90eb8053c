"""Counting basis monomials by direct enumeration and by carry vectors.

Fix a prime p, a number of variables d, and a level e >= 1.  Among the
monomials of total degree p^e - 1 in d variables, the basis monomials are
those whose exponents (a_1, ..., a_d) satisfy, for every 1 <= e1 < e,

    (a_1 mod p^e1) + ... + (a_{d-1} mod p^e1) >= p^e1.

Equivalently (and tested as an invariant): adding all d exponents in base p
produces a strictly positive carry out of every digit position below the
top.  This module counts them two independent ways:

* ``count_basis_enumeration`` walks the compositions of p^e - 1 directly
  and tests the truncation inequalities.  Exponential in e, but exact and
  assumption-free: it is the reference the structured engines are checked
  against.

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


def count_basis_enumeration(
    p: int,
    d: int,
    e: int,
    *,
    max_compositions: int = DEFAULT_MAX_COMPOSITIONS,
) -> int:
    """Count basis monomials by walking compositions of p^e - 1.

    Raises GuardExceeded before iterating if the number of compositions
    to visit exceeds ``max_compositions``.

    The walk recurses over the first d-1 coordinates (the last one is
    forced by the degree), carrying the partial truncated sums so shared
    prefixes are processed once; the innermost loop updates each
    truncation incrementally instead of reducing mod p^e1 from scratch.
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
    ne1 = e - 1
    total = 0

    def descend(i: int, rem: int, sums: list[int]) -> None:
        nonlocal total
        if i == d - 2:
            md = [0] * ne1
            for _ in range(rem + 1):
                for t in range(ne1):
                    if sums[t] + md[t] < pw[t]:
                        break
                else:
                    total += 1
                for t in range(ne1):
                    v = md[t] + 1
                    md[t] = 0 if v == pw[t] else v
            return
        for a in range(rem + 1):
            descend(i + 1, rem - a, [sums[t] + a % pw[t] for t in range(ne1)])

    descend(0, n_total, [0] * ne1)
    return total


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
