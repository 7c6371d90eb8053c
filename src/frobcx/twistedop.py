"""Twisted matrix operators over truncated polynomial rings.

Work in R = F_p[x]/(x^N).  A twisted operator of degree e is a pair (A, e)
with A an r x r matrix over R; it acts by first raising inputs to the
p^e-th power and then applying A.  Stacking actions gives the twisted
composition rule

    (A, e) o (B, e') = (A * B^[p^e], e + e'),

where B^[p^e] raises each entry to its p^e-th power.  Over R that power
map is cheap bookkeeping: coefficients live in F_p, so they are fixed, and
coefficient i moves to position i * p^e, falling off the end once
i * p^e >= N.  So as soon as p^e >= N the map keeps only the constant term,
which is why every operator of large degree factors as a fixed-degree
operator composed with twists of the identity, and why p^min(e, N) serves
for p^e.  One kernel computes an entry of A * B^[q] on coefficient tuples;
products (q = 1), powers and compositions all go through it.
"""

from __future__ import annotations

import random
from collections import namedtuple
from operator import index

from .basep import Prime


class QuotientRing(namedtuple("QuotientRing", "p n")):
    """F_p[x] / (x^n), coefficients stored little-endian mod p."""

    __slots__ = ()

    def __new__(cls, p: int, n: int) -> "QuotientRing":
        p, n = Prime(p), index(n)  # 3.5 raises TypeError
        if n < 1:
            raise ValueError("truncation order must be >= 1")
        return super().__new__(cls, p, n)

    def element(self, coeffs) -> "QElem":
        """Quotient-map an integer coefficient list: reduce mod p, drop x^n on."""
        cs = [c % self.p for c in list(coeffs)[: self.n]]
        return QElem(self, tuple(cs + [0] * (self.n - len(cs))))

    def zero(self) -> "QElem":
        return self.element([])

    def one(self) -> "QElem":
        return self.element([1])

    def gen(self) -> "QElem":
        """The class of x (zero when n == 1)."""
        return self.element([0, 1])

    def random_element(self, rng: random.Random) -> "QElem":
        return QElem(self, tuple(rng.randrange(self.p) for _ in range(self.n)))


class QElem(namedtuple("QElem", "ring coeffs")):
    """An element of a QuotientRing; arithmetic stays in the ring."""

    __slots__ = ()

    def __new__(cls, ring: QuotientRing, coeffs: tuple[int, ...]) -> "QElem":
        if len(coeffs) != ring.n:
            raise ValueError("coefficient vector must have length n")
        if min(coeffs) < 0 or max(coeffs) >= ring.p:
            raise ValueError("coefficients must be reduced mod p")
        return super().__new__(cls, ring, coeffs)

    def _check_ring(self, other: "QElem") -> None:
        if self.ring != other.ring:
            raise ValueError("elements live in different rings")

    def __add__(self, other: "QElem") -> "QElem":
        self._check_ring(other)
        p = self.ring.p
        return QElem(
            self.ring,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __mul__(self, other: "QElem") -> "QElem":
        self._check_ring(other)
        return _product((self,), (other,), 1)

    __rmul__ = None  # 2 * x raises TypeError, where the tuple's would repeat it

    def frobenius(self, e: int) -> "QElem":
        """The p^e-th power: coefficient i moves to position i * p^e."""
        if e < 0:
            raise ValueError("twist degree must be >= 0")
        if e == 0:
            return self
        return _product((self.ring.one(),), (self,), _twist(self.ring, e))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "1" if i == 0 else "x" if i == 1 else f"x^{i}"
            parts.append(mono if c == 1 and i else f"{c}" if i == 0 else f"{c}*{mono}")
        return " + ".join(parts) if parts else "0"


QMatrix = tuple[tuple[QElem, ...], ...]


def _as_matrix(rows) -> QMatrix:
    out = tuple(tuple(row) for row in rows)
    if not out:
        raise ValueError("matrix must be nonempty")
    r = len(out)
    ring = out[0][0].ring
    for row in out:
        if len(row) != r:
            raise ValueError("matrix must be square")
        for v in row:
            if v.ring is not ring and v.ring != ring:
                raise ValueError("matrix entries live in different rings")
    return out


def bracket(rows, e: int) -> QMatrix:
    """Entrywise p^e-th power of a matrix over a QuotientRing."""
    return tuple(tuple(v.frobenius(e) for v in row) for row in _as_matrix(rows))


def _twist(ring: QuotientRing, e: int) -> int:
    """p^e, capped at p^n: since p^n >= n, deeper twists act the same."""
    return ring.p ** min(e, ring.n)


def _product(row, col, q: int) -> QElem:
    """One entry of A * B^[q], the sum over t of row[t] * col[t]^[q], on
    coefficient tuples: coefficient v of col[t] is read at position v * q,
    and the sum is reduced mod p once."""
    ring = row[0].ring
    n = ring.n
    acc = [0] * n
    for x, y in zip(row, col):
        for u, c in enumerate(x.coeffs):
            if c:
                for pos, d in zip(range(u, n, q), y.coeffs):
                    acc[pos] += c * d
    return QElem(ring, tuple([c % ring.p for c in acc]))


class TwistedOperator(namedtuple("TwistedOperator", "rows degree")):
    """A matrix together with its twist degree."""

    __slots__ = ()

    def __new__(cls, rows: QMatrix, degree: int) -> "TwistedOperator":
        rows, degree = _as_matrix(rows), index(degree)  # 1.5 raises TypeError
        if degree < 0:
            raise ValueError("twist degree must be >= 0")
        return super().__new__(cls, rows, degree)

    @property
    def ring(self) -> QuotientRing:
        return self.rows[0][0].ring

    @property
    def size(self) -> int:
        return len(self.rows)


def compose(f: TwistedOperator, g: TwistedOperator) -> TwistedOperator:
    """(A, e) o (B, e') = (A * B^[p^e], e + e')."""
    if f.ring != g.ring:
        raise ValueError("operators act on different rings")
    if f.size != g.size:
        raise ValueError("operators have different matrix sizes")
    q, cols = _twist(f.ring, f.degree), tuple(zip(*g.rows))
    rows = tuple(tuple(_product(row, col, q) for col in cols) for row in f.rows)
    return TwistedOperator(rows, f.degree + g.degree)


def identity_operator(ring: QuotientRing, size: int, degree: int = 0) -> TwistedOperator:
    if size < 1:
        raise ValueError("size must be >= 1")
    one, zero = ring.one(), ring.zero()
    rows = tuple(
        tuple(one if i == j else zero for j in range(size)) for i in range(size)
    )
    return TwistedOperator(rows, degree)


def random_operator(
    ring: QuotientRing, size: int, degree: int, rng: random.Random
) -> TwistedOperator:
    rows = tuple(
        tuple(ring.random_element(rng) for _ in range(size)) for _ in range(size)
    )
    return TwistedOperator(rows, degree)


def min_kill_degree(ring: QuotientRing) -> int:
    """Smallest e with p^e >= n: twists this deep keep only constant terms."""
    e, q = 0, 1
    while q < ring.n:
        e += 1
        q *= ring.p
    return e


def _identity_chain(tail: int, e0: int) -> tuple[int, int] | None:
    """(k, c) with (I, tail) == (I, e0)^ok o (I, c), k >= 1 and e0 <= c < 2*e0;
    None when e0 == 0 or tail < 2*e0, where (I, tail) is its own chain."""
    if e0 < 1 or tail < 2 * e0:
        return None
    return tail // e0 - 1, tail % e0 + e0


def factorization_check(rows, e: int, e0: int) -> bool:
    """Check that a degree-e operator splits off its twist beyond e0.

    Requires e >= e0 and p^e0 >= n.  Verifies (A, e) == (A, e0) o (I, e-e0)
    exactly, and additionally, when e - e0 >= 2*e0, that the identity tail
    itself splits into a chain (I, e0) o ... o (I, e0) o (I, c) with
    e0 <= c < 2*e0, so high twists reduce to a bounded generating set.  The
    chain is composed by squaring, in O(log e) compositions.
    """
    rows = _as_matrix(rows)
    ring = rows[0][0].ring
    kill = min_kill_degree(ring)
    if e0 < kill:
        raise ValueError(f"e0 must be >= {kill}, the smallest twist with p^e0 >= n")
    if e < e0:
        raise ValueError("need e >= e0")
    size = len(rows)
    whole = TwistedOperator(rows, e)
    split = compose(TwistedOperator(rows, e0), identity_operator(ring, size, e - e0))
    if split != whole:
        return False
    if (parts := _identity_chain(e - e0, e0)) is not None:
        k, c = parts
        chain, step = identity_operator(ring, size, c), identity_operator(ring, size, e0)
        while k:  # by squaring: every factor is a power of (I, e0)
            if k & 1:
                chain = compose(step, chain)
            k >>= 1
            if k:  # skip the last square, which nothing uses
                step = compose(step, step)
        if chain != identity_operator(ring, size, e - e0):
            return False
    return True
