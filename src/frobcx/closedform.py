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

with equality at d = 3 (where the subfamily is everything).
``lower_bound`` sums it one base-p digit of i at a time, lowest first, by
Vandermonde's identity (m = d - 3, low the lower digits' value)

    comb(m + low + c p^k, r) = sum_{j <= r} comb(m + low, j) comb(c p^k, r - j),

in e p (d - 2) binomials on integers below p^e and e (d - 2)^2 / 2
products: linear in p, so no guard applies.  Where the complexity has a
known closed form (d = 3, and d = 4 in characteristic 2)
``known_complexity_expression`` states it, for comparison with the
certified interval of ``spectral.frobenius_complexity``.
"""

from __future__ import annotations

from math import comb
from operator import index

from .basep import Prime, at_least


def closed_form_d3(p: int, e: int) -> int:
    """c_{3,e} exactly: p^e (p-1)^2 (p+1)^{e-2} / 2^e for e >= 2, comb(p+1, 2) at e = 1."""
    p, e = Prime(p), at_least(e, 1, "e")
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

    With m = d - 3, s_r sums weight * comb(m + low, r), r <= m, over the
    lower digit strings read so far, from comb(m, r) for the empty one.
    Digit k, of weight w(c) = c at k = 0, p - 1 - c at k = e - 1 and c + 1
    between, steps s_r to sum_{j <= r} a_{r-j} s_j, a_t = sum_c w(c)
    comb(c p^k, t), by Vandermonde's identity above.  s_m is the bound,
    after e p (d - 2) binomials and e (d - 2)^2 / 2 products, with no guard.
    """
    p, d, e = Prime(p), index(d), index(e)  # 4.5 raises TypeError
    if d < 3:
        raise ValueError("the bound applies for d >= 3")
    if e < 2:
        raise ValueError("the bound applies for e >= 2")
    m = d - 3
    s = [comb(m, r) for r in range(m + 1)]  # the empty digit string, weight 1
    for k in range(e):
        q = p**k
        w = [c if k == 0 else p - 1 - c if k == e - 1 else c + 1 for c in range(p)]
        a = [sum(wc * comb(c * q, t) for c, wc in enumerate(w)) for t in range(m + 1)]
        s = [sum(a[r - j] * s[j] for j in range(r + 1)) for r in range(m + 1)]
    return s[m]


def known_complexity_expression(p: int, d: int) -> str | None:
    """Closed-form expression for the complexity, where one is known."""
    p, d = Prime(p), index(d)
    if d == 3:
        if p == 2:
            return "log_2(3)"
        return f"1 + log_{p}({p + 1}) - log_{p}(2)"
    if (p, d) == (2, 4):
        return "log_2(5 + sqrt(5))"
    return None

