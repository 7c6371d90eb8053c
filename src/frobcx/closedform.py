"""Closed forms and bounds for the count sequence.

For three variables everything collapses: the transfer matrix is the 1x1
matrix [p(p+1)/2] and the counts have the product form

    c_{3,e} = p^e (p-1)^2 (p+1)^{e-2} / 2^e,    e >= 2,

after c_{3,1} = comb(p+1, 2), so the growth rate is exactly p(p+1)/2.
For general d >= 3 a structured subfamily of basis monomials can be
tallied exactly: tagging it by an index i with base-p digits
(c_{e-1} ... c_1 c_0) and weight

    xi_e(i) = (p - 1 - c_{e-1}) (c_{e-2} + 1) ... (c_1 + 1) c_0

gives

    c_{d,e} >= sum_{i=0}^{p^e - 1} xi_e(i) comb(d-3+i, i),

with equality at d = 3 (where the subfamily is everything), and
``lower_bound`` evaluates it, forming each weight inline from the digits
of i as it walks them.  Where the complexity has a known closed form
(d = 3, and d = 4 in characteristic 2) ``known_complexity_expression``
states it, for comparison with the certified interval of
``spectral.frobenius_complexity``.
"""

from __future__ import annotations

from itertools import product
from operator import index

from .basep import Prime
from .errors import GuardExceeded

MAX_TERMS = 10**7


def closed_form_d3(p: int, e: int) -> int:
    """c_{3,e} exactly: p^e (p-1)^2 (p+1)^{e-2} / 2^e for e >= 2, comb(p+1, 2) at e = 1."""
    p, e = Prime(p), index(e)  # 3.0 raises TypeError
    if e < 1:
        raise ValueError("e must be >= 1")
    if e == 1:  # every monomial of degree p - 1 qualifies
        return p * (p + 1) // 2
    num = p**e * (p - 1) ** 2 * (p + 1) ** (e - 2)
    den = 2**e
    assert num % den == 0, "closed form must be an integer"
    return num // den


def complexity_d3(p: int) -> int:
    """Growth rate of the three-variable counts: exactly p(p+1)/2."""
    p = Prime(p)
    return p * (p + 1) // 2


def lower_bound(p: int, d: int, e: int) -> int:
    """Exact evaluation of the xi-weight lower bound for c_{d,e}.

    Walks the base-p digits of i = 0..p^e - 1 in order, updating the
    binomial comb(d-3+i, i) by one exact multiply/divide per step.
    Guarded by ``MAX_TERMS`` on the number of summands p^e.
    """
    p = Prime(p)
    if d < 3:
        raise ValueError("the bound applies for d >= 3")
    if e < 2:
        raise ValueError("the bound applies for e >= 2")
    n = p**e
    if n > MAX_TERMS:
        raise GuardExceeded("lower-bound summation", n, MAX_TERMS)
    binom = 1  # comb(d-3+i, i) at i = 0
    total = 0
    for i, dig in enumerate(product(range(p), repeat=e)):  # digits of i, highest first
        if i:
            binom = binom * (d - 3 + i) // i
        w = (p - 1 - dig[0]) * dig[-1]
        if w:
            for c in dig[1:-1]:
                w *= c + 1
            total += w * binom
    return total


def known_complexity_expression(p: int, d: int) -> str | None:
    """Closed-form expression for the complexity, where one is known."""
    p = Prime(p)
    if d == 3:
        if p == 2:
            return "log_2(3)"
        return f"1 + log_{p}({p + 1}) - log_{p}(2)"
    if (p, d) == (2, 4):
        return "log_2(5 + sqrt(5))"
    return None

