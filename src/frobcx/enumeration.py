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
  form.  Each state's successors are zipped in C from one repeated
  period per level, so its cost is e column entries and one table update
  per successor of each state, plus O(e^2) per distinct sums for the
  last coordinate.  It knows nothing of carries, so it stays the
  assumption-free reference the structured engines are checked against.

* ``count_basis_carryvectors`` sums, over all possible interior carry
  vectors, the number of digit matrices realizing them.  Each digit column
  with carry-in j and carry-out i can be chosen in M_d(p*i - j + p - 1)
  ways, where M_d is the coefficient table of (1 + t + ... + t^{p-1})^d,
  so the count is a product of table lookups summed over (d_0, ...,
  d_{e-2}) in [1, d-2]^{e-1}.  At e = 1 the one empty carry vector leaves
  M_d(p - 1) = comb(d+p-2, p-1); for d <= 2 and e >= 2 no carry lies in
  [1, d-2], so the count is 0.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from itertools import cycle, product, repeat
from math import comb
from operator import index

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


def guard_compositions(p: int, d: int, e: int, limit: int) -> int:
    """Level e's compositions, or GuardExceeded past ``limit``; no p^e at d = 1."""
    needed = 1 if d == 1 else composition_count(p**e - 1, d)
    if needed > limit:
        raise GuardExceeded("enumeration of compositions", needed, limit)
    return needed


def guard_carryvectors(p: int, d: int, e: int, limit: int) -> None:
    """GuardExceeded if level e's carry vectors pass ``limit``."""
    needed = max(d - 2, 0) ** (e - 1)
    if needed > limit:
        raise GuardExceeded("carry-vector sum", needed, limit)


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


def _last_coordinate_counter(sums: tuple[int, ...], pw: list[int]) -> Callable[[int], int]:
    """The function n -> #{m in [0, n) : (m mod pw[t]) + sums[t] >= pw[t] for every t}.

    ``pw`` is [p, p^2, ..., p^(e-1)] and each ``sums[t]`` lies in
    [0, pw[t]].  Only m mod p^(e-1) matters, so whole periods of p^(e-1)
    each hold the same number of accepted m.  For m below p^k, level k
    asks m >= p^k - sums[k-1] and the lower levels see only m mod p^(k-1),
    so the count over [0, n) peels one base-p block per level: O(e) per
    count.  The per-level counts it needs depend on ``sums`` alone and
    take O(e^2) to build, once per counter.
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
    return partial(accepted, len(pw))


def count_basis_enumeration(
    p: int,
    d: int,
    e: int,
    *,
    max_compositions: int = DEFAULT_MAX_COMPOSITIONS,
) -> int:
    """Count the compositions of p^e - 1 that pass the truncation inequalities.

    Raises GuardExceeded before any work if the number of compositions
    exceeds ``max_compositions``.  At d = 1 there is one composition, and
    the count is settled before any power of p is formed.

    Only the first d-1 coordinates enter the inequalities (the last is
    forced by the degree).  After a prefix of them, the completions that
    pass depend only on the degree left and on each truncated sum, and a
    sum that has reached p^e1 stays at or above it, so it is capped there.
    The first d-2 coordinates are added one at a time to a table
    {(degree left, *capped sums): number of prefixes}.  A state with rem
    left has rem + 1 successors, whose sums at each level repeat with
    period p^e1, so their keys are zipped in C from one cycled period per
    level.  The values of the last free coordinate that pass are then
    counted in closed form, from tables built once per distinct sums.
    Cost: e column entries and one table update per successor of each
    state, plus O(e^2) per distinct sums; the number of compositions
    bounds the states.
    """
    p, d, e = Prime(p), index(d), index(e)  # 2.5 raises TypeError
    if d < 1:
        raise ValueError("d must be >= 1")
    if e < 1:
        raise ValueError("e must be >= 1")
    needed = guard_compositions(p, d, e, max_compositions)

    if e == 1:
        # no interior truncation levels: every composition qualifies
        return needed
    if d == 1:
        # the single composition (p^e - 1,) has no first d-1 coordinates
        return 0

    n_total = p**e - 1
    pw = [p**t for t in range(1, e)]
    states = {(n_total, *[0] * (e - 1)): 1}
    for _ in range(d - 2):
        grown: dict[tuple[int, ...], int] = {}
        get = grown.get
        for (rem, *sums), n in states.items():
            # level t of the successors over a = 0..rem is min(s + a mod q, q):
            # the period s, ..., q - 1 and then s caps q, repeated
            columns = [cycle([*range(s, q), *repeat(q, s)]) for s, q in zip(sums, pw)]
            for key in zip(range(rem, -1, -1), *columns):
                grown[key] = get(key, 0) + n
        states = grown
    by_sums: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for key, n in states.items():
        by_sums.setdefault(key[1:], []).append((key[0], n))
    total = 0
    for sums, entries in by_sums.items():
        count = _last_coordinate_counter(sums, pw)
        total += sum(n * count(rem + 1) for rem, n in entries)
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
    (d-1)p + p - 1.  At e = 1 the empty carry vector is the only one, and
    its one column gives comb(d+p-2, p-1); for d <= 2 and e >= 2 the range
    is empty and the sum is 0.  Cost is max(d-2, 0)^(e-1) products of e
    table lookups, guarded by ``max_carryvectors``.
    """
    p, d, e = Prime(p), index(d), index(e)  # 2.5 raises TypeError
    if d < 1:
        raise ValueError("d must be >= 1")
    if e < 1:
        raise ValueError("e must be >= 1")
    guard_carryvectors(p, d, e, max_carryvectors)

    md = dict(enumerate(build_table(p, d))).get
    total = 0
    for vec in product(range(1, d - 1), repeat=e - 1):
        prev = 0
        term = 1
        for dn in vec:
            term *= md(p * dn - prev + p - 1, 0)
            if term == 0:
                break
            prev = dn
        else:
            total += term * md(p - 1 - prev, 0)
    return total
