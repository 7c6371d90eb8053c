"""Base-p digit arithmetic for exponent vectors.

Everything downstream reduces to bookkeeping on base-p digits: a monomial
x_1^{a_1} ... x_d^{a_d} of total degree p^e - 1 is described by the digit
rows of its exponents, and the structural questions (which monomials are
basis monomials, how counts recur in e) are answered by truncations
a mod p^n and by the carries produced when the exponents are added in
base p.  This module provides those primitives exactly, on plain ints.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt
from operator import index


class Prime(int):
    """An int validated to be prime at construction.

    Usable anywhere an int is.  Validation is trial division, fine for the
    small characteristics this package targets; a Prime is not checked again.
    """

    __slots__ = ()

    def __new__(cls, value: int) -> "Prime":
        if isinstance(value, cls):
            return value
        v = index(value)  # no truncation: 7.9 raises TypeError
        if v < 2:
            raise ValueError(f"{v} is not prime")
        for q in range(2, isqrt(v) + 1):
            if v % q == 0:
                raise ValueError(f"{v} is not prime (divisible by {q})")
        return super().__new__(cls, v)


def digits(a: int, p: int, length: int) -> tuple[int, ...]:
    """Base-p digits of ``a``, little-endian, padded/limited to ``length``.

    Rejects negative ``a`` and any ``a`` that does not fit in ``length``
    digits; silently dropping high digits would corrupt every carry
    computation built on top.
    """
    p, a, length = Prime(p), index(a), index(length)  # 2.5 raises TypeError
    if a < 0:
        raise ValueError("negative values have no base-p digit expansion here")
    if length < 0:
        raise ValueError("length must be nonnegative")
    out = []
    rest = a
    for _ in range(length):
        rest, r = divmod(rest, p)
        out.append(r)
    if rest:
        raise ValueError(f"{a} does not fit in {length} base-{p} digits")
    return tuple(out)


class ExponentVector(namedtuple("ExponentVector", "a p e")):
    """Exponents (a_1, ..., a_d) of a monomial of degree p^e - 1."""

    __slots__ = ()

    def __new__(cls, a, p: int, e: int) -> "ExponentVector":
        p, a, e = Prime(p), tuple(map(index, a)), index(e)  # no truncation of 1.9
        if e < 1:
            raise ValueError("e must be >= 1")
        if not a:
            raise ValueError("need at least one exponent")
        if any(x < 0 for x in a):
            raise ValueError("exponents must be nonnegative")
        need = p**e - 1
        if sum(a) != need:
            raise ValueError(f"exponents sum to {sum(a)}, degree p^e - 1 = {need} required")
        return super().__new__(cls, a, p, e)

    @property
    def d(self) -> int:
        return len(self.a)


def carry_sequence(v: ExponentVector) -> tuple[int, ...]:
    """Carries produced by adding the exponents of ``v`` in base p.

    Returns (d_0, ..., d_{e-1}) where d_n is the carry out of digit
    position n (i.e. into position n+1) when a_1 + ... + a_d is summed by
    school addition.  Because the total is p^e - 1 = (p-1, ..., p-1) in
    base p, every column must satisfy

        sum_i digit_n(a_i) + d_{n-1} = d_n * p + (p - 1),   d_{-1} = 0,

    and the top carry d_{e-1} is 0.  Both facts are asserted: a violation
    is unreachable for a valid ExponentVector.
    """
    p, e = v.p, v.e
    rows = [digits(x, p, e) for x in v.a]
    out = []
    carry = 0
    for n in range(e):
        col = sum(row[n] for row in rows) + carry
        carry, digit = divmod(col, p)
        assert digit == p - 1, "column digit must be p-1 for degree p^e - 1"
        out.append(carry)
    assert out[-1] == 0, "top carry must vanish"
    return tuple(out)
