"""Certified spectral bounds and logarithms, in exact rational arithmetic.

The generator counts grow like rho^e where rho is the spectral radius of
the transfer matrix.  Nothing here is floating point: every bound is a
Fraction that provably brackets the target.

* ``perron_interval`` encloses the spectral radius rho of a nonnegative
  integer n x n matrix U first by the Collatz-Wielandt bounds of the left
  power steps y_k = y_(k-1)^T U, y_0 = 1: while y_(k-1) > 0, min_j and
  max_j of y_(k,j) / y_(k-1,j) bracket rho (Wielandt 1950; Horn and
  Johnson, Matrix Analysis, Thm 8.1.26), the min never falls and the max
  never rises, and the max is at most the largest column sum.  On a
  transfer matrix 1^T is almost a left Perron vector, as every column but
  one sums to p^(d-1), so a few steps often meet tol.  The loop gives up
  at a zero entry of y_k, or when its last contraction, repeated for the
  rest of n steps (those a Krylov chi spends), would not reach tol.  Then
  it runs Newton's method from the right on the exact characteristic
  polynomial chi, of degree n.  rho is an eigenvalue and every eigenvalue
  has Re lambda <= rho (Perron-Frobenius), so at real t > rho each term of
  chi'(t) / chi(t) = sum_i 1 / (t - lambda_i) has real part in (0, 1 / (t
  - rho)], the term of rho equal to it, and delta = chi(t) / chi'(t) has
  (t - rho) / n <= delta <= t - rho: rho lies in [t - n delta, t - delta].
  Each step is certified by itself, so the interval holds rho however the
  loop stops.  The first t is the smaller of the largest row sum and the
  largest column sum, each >= rho as rho(U) = rho(U^T); on a transfer
  matrix the column sums are at most p^(d-1), which lies above rho by a
  relative amount of about 1/(d-1)!.  t = a / 2^b stays dyadic, lo is kept
  at the same exponent b, and 2^(bn) chi(t) and 2^(b(n - 1)) chi'(t) are
  integers by Horner's rule.

* ``log2_interval`` brackets log2(x) for rational x by argument reduction
  and a series, in fixed-point integers at scale S = 2^w.  With y = x / 2^k
  in [1, 2) and t = y^(1 / 2^r), log2 y = 2^r atanh(z) / atanh(1/3) for
  z = (t - 1) / (t + 1), as ln 2 = 2 atanh(1/3).  A lower and an upper track
  bound every quantity: floor and ceiling ``isqrt`` roots bracket t, and z
  increases with t; each power of z and term of atanh(z) is rounded down on
  the lower track and up on the upper one, which adds the last power P >= S
  z^(2J+1) for the tail, at most P z^2 / (1 - z^2) < P / 8 as z < 1/3.  The
  n terms of S atanh(1/3) down to the first zero quotient (S / 3, divided
  by 9 per term) are exact floors, and the rest sum to less than one unit,
  so their sum plus n + 1 bounds it above; the sum is kept for the last w,
  which the calls of one log_of_interval share.  log2_interval returns
  floor(2^m log2 y) when both tracks give it; log2 y is irrational for
  1 < y < 2, so that floor is the one answer.  Otherwise the guard bits
  double and it tries again.  ``log_of_interval`` maps [lo, hi] to base b
  with one ``log2_interval`` call each for lo, hi and b (a single one for
  both ends when lo == hi), at a precision fixed in advance from tol and
  the sizes of lo and hi.

``char_poly`` is defined in ``transfer``, whose count recurrence needs it,
and re-exported here: chi is exact, a tuple of integer coefficients, x^0's
first, from a Krylov basis by p-adic lifting from dimension 12 on and by
Berkowitz's division-free method below it or where the Krylov basis is
singular.

The growth rate of the counts is this spectral radius, as the transfer
matrix, positive on its diagonal and beside it, is primitive and its seed
and weights nonnegative and nonzero.  ``frobenius_complexity`` checks these
conditions at run time, and tests/test_spectral.py's
``test_growth_rate_is_the_spectral_radius`` checks them for p <= 11 at
3 <= d <= 29 and for p = 101 at 3 <= d <= 8.  (1 - 1/(d-1)!) p^(d-1) < rho
< p^(d-1); the tests prove the lower end for every prime p at 3 <= d <= 20,
the tier-1 suite at d <= 12 and a CI step from d = 13 on.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import mul

from .errors import NotCertified, NotConverged
from .transfer import Matrix, _validate_matrix, build_system, char_poly


def _as_fraction(value) -> Fraction:  # the one parser of tol, the CLI's too
    try:
        out = Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"invalid tolerance {value!r}: {exc}") from None
    if out <= 0:
        raise ValueError("tolerance must be positive")
    return out


class _Interval:
    """The interval types' shared part: exact rational ends, lo <= hi."""

    __slots__ = ()

    def __new__(cls, lo, hi, *args, **kwargs):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        return super().__new__(cls, lo, hi, *args, **kwargs)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi


class RationalInterval(_Interval, namedtuple("RationalInterval", "lo hi")):
    """A closed interval with exact rational endpoints."""

    __slots__ = ()


class SpectralEstimate(_Interval, namedtuple("SpectralEstimate", "lo hi iterations converged",
                                             defaults=(0, True))):
    """Certified enclosure of a spectral radius.

    ``iterations`` counts the Collatz-Wielandt steps when they decide, and
    otherwise the Newton steps on chi.  ``converged`` records whether the
    requested width was reached within their cap; the interval is valid
    either way.
    """

    __slots__ = ()


def perron_interval(matrix, tol) -> SpectralEstimate:
    """Certified enclosure of the spectral radius of a nonnegative matrix.

    First by the Collatz-Wielandt bounds: the ratios of y_k = y_(k-1)^T U to
    y_(k-1) > 0, y_0 = 1, bracket rho, as for every nonnegative matrix and
    rho(U^T) = rho(U), and their [min, max], with general rational ends, is
    the result once it is no wider than tol; ``iterations`` is then k.
    Where that loop gives up (module docstring), by Newton's method on chi,
    the exact characteristic polynomial of degree n, from the right.  By
    Perron-Frobenius rho is an eigenvalue and every eigenvalue has Re
    lambda <= rho, so at real t > rho, chi(t) > 0 and chi'(t) / chi(t) =
    sum_i 1 / (t - lambda_i), each term of real part in (0, 1 / (t - rho)]
    and the term of rho equal to it.  Thus delta = chi(t) / chi'(t) has
    (t - rho) / n <= delta <= t - rho, that is, rho lies in [t - n delta,
    t - delta].  From t = top, the smaller of the largest row sum and the
    largest column sum, both >= rho, each step takes hi = t - delta,
    rounded up to a dyadic of at most bmax = bits(ceil(1/tol)) + 2 bits(n)
    + 2 fractional bits, as the next t and lo = t - n delta, rounded down,
    until hi - lo <= tol; each step's [lo, hi] holds rho by itself.  A t
    with chi(t) = 0 is rho itself, and the result a point; chi = x^n (no
    cycle) gives [0, 0].  At the cap of n (bmax + bits(top)) + 64 steps the
    interval so far is taken (not converged).
    """
    rows = _validate_matrix(matrix)
    if any(v < 0 for row in rows for v in row):
        raise ValueError("matrix entries must be nonnegative")
    tol = _as_fraction(tol)
    if found := _collatz_wielandt(rows, tol.numerator, tol.denominator):
        return found
    coeffs = char_poly(rows)
    if not any(coeffs[:-1]):  # chi = x^n: no cycle, radius 0
        return SpectralEstimate(0, 0)
    top = min(max(map(sum, rows)), max(map(sum, zip(*rows))))
    lo, hi, steps = _newton(coeffs, top, tol.numerator, tol.denominator)
    return SpectralEstimate(lo, hi, iterations=steps, converged=hi - lo <= tol)


def _collatz_wielandt(rows: Matrix, tn: int, td: int) -> SpectralEstimate | None:
    # [lo, hi] from the ratios of y_k = y_(k-1)^T U to y_(k-1) > 0, y_0 = 1,
    # or None when some y_k has a zero entry or the gap's log2, L_k, would
    # not reach tol's within the n steps a Krylov chi takes: from k = 2 on,
    # if L_k + (n - k)(L_k - L_(k-1)) > log2 tol, in bit lengths.  Each pair
    # is found by cross-multiplying, and the Fractions are built on return
    n, cols, y = len(rows), list(zip(*rows)), [1] * len(rows)
    for k in range(1, n + 1):
        z = [sum(map(mul, y, col)) for col in cols]
        if not all(z):
            return None
        ln, ld = hn, hd = z[0], y[0]
        for u, v in zip(z, y):
            if u * ld < ln * v:
                ln, ld = u, v
            elif u * hd > hn * v:
                hn, hd = u, v
        y = z
        gap, den = hn * ld - ln * hd, hd * ld
        if gap * td <= tn * den:
            return SpectralEstimate(Fraction(ln, ld), Fraction(hn, hd), iterations=k)
        bits = gap.bit_length() - den.bit_length()
        if k > 1 and bits + (n - k) * (bits - last) > tn.bit_length() - td.bit_length():
            return None
        last = bits
    return None


def _newton(coeffs: tuple[int, ...], top: int, tn: int, td: int) -> tuple[Fraction, Fraction, int]:
    # (lo, hi, steps) for rho, the largest root of chi = sum coeffs[k] x^k,
    # chi != x^n, by Newton steps down from t = a / 2^b = top >= rho, with
    # tol = tn / td.  lo is the numerator of this step's t - n delta over the
    # next t's 2^b, and the Fractions are built on return.  Each next t
    # keeps e bits, twice those of t / delta plus 32, up to bmax.  A cycle of
    # length k gives U^k a diagonal entry >= 1, so rho >= 1, and a step that
    # rounds back to t has t / delta > 2^e, so e = bmax; its width is then
    # below (n + 1) 2^-bmax < tol, and it converges
    n = len(coeffs) - 1
    bmax = (-(-td // tn)).bit_length() + 2 * n.bit_length() + 2
    a, b = top, 0
    for step in range(1, n * (bmax + top.bit_length()) + 65):
        v, dv = _scaled_value(coeffs, a, 1 << b)  # delta = v / (dv 2^b)
        if v == 0:  # t is a root, so t = rho
            lo = a
            break
        e = min(bmax, max(b, 2 * (a * dv // v).bit_length() + 32))  # t / delta = a dv / v
        lo = ((a * dv - n * v) << e - b) // dv
        a, b = -(-((a * dv - v) << e - b) // dv), e
        if (a - lo) * td <= tn << b:
            break
    return Fraction(lo, 1 << b), Fraction(a, 1 << b), step


def _scaled_value(coeffs: tuple[int, ...], a: int, b: int) -> tuple[int, int]:
    # (b^n chi(a / b), b^(n - 1) chi'(a / b)), n = deg chi, by Horner's rule in integers
    out, slope, power = 0, 0, 1
    for c in reversed(coeffs):
        out, slope, power = out * a + c * power, slope * a + out, power * b
    return out, slope


def _floor_log2(num: int, den: int) -> int:
    # floor(log2(num / den)) for num, den > 0
    k = num.bit_length() - den.bit_length()
    return k - (num << max(0, -k) < den << max(0, k))


def _log2_bits(x: Fraction, k: int, m: int, guard: int) -> Fraction | None:
    # floor(2^m log2 y) / 2^m for y = x / 2^k in [1, 2), or None if the lower
    # and upper tracks (module docstring) disagree; r roots, at scale 2^w
    r = isqrt(m + guard) // 3
    w = m + guard + r
    one, num, den = 1 << w, x.numerator << max(0, -k) + w, x.denominator << max(0, k)
    tlo, thi = num // den, -(-num // den)
    for _ in range(r):
        tlo, thi = isqrt(tlo << w), isqrt((thi << w) - 1) + 1
    zlo, zhi = ((tlo - one) << w) // (tlo + one), -((one - thi << w) // (thi + one))
    z2lo, z2hi = zlo * zlo >> w, -(-zhi * zhi >> w)
    alo, ahi, plo, phi, j = zlo, zhi, zlo, zhi, 1
    while phi > 1:
        plo, phi, j = plo * z2lo >> w, -(-phi * z2hi >> w), j + 2
        alo += plo // j
        ahi -= -phi // j
    ahi += phi  # the tail
    llo, n = _atanh_third(w)  # S atanh(1/3) lies in [llo, llo + n + 1)
    lo = (alo << m + r) // (llo + n + 1)
    return Fraction(lo, 1 << m) if lo == (ahi << m + r) // llo else None


@lru_cache(maxsize=1)
def _atanh_third(w: int) -> tuple[int, int]:
    llo, q, n = 0, (1 << w) // 3, 0
    while q:
        llo, q, n = llo + q // (2 * n + 1), q // 9, n + 1
    return llo, n


def log2_interval(x, m: int) -> tuple[Fraction, Fraction]:
    """An interval of width 2^-m certified to contain log2(x), x > 0."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("logarithm needs a positive argument")
    if m < 1:
        raise ValueError("m must be >= 1")
    if x == 1:
        return Fraction(0), Fraction(0)
    k = _floor_log2(*x.as_integer_ratio())
    guard = 24
    while (frac := _log2_bits(x, k, m, guard)) is None:
        guard *= 2
    return k + frac, k + frac + Fraction(1, 1 << m)


def log_of_interval(lo, hi, base: int, tol) -> RationalInterval:
    """Outward log_base image of [lo, hi], each end within tol of its log.

    Each logarithm is taken once, at a precision m fixed in advance.  Base 2:
    m = bits(ceil(1/tol)), and log2_interval's width is 2^-m < tol.  Else m
    = bits(ceil(1/tol)) + max(8, bits(K + 3)), K the larger |floor(log2)| of
    lo and hi, so e = 2^-m < tol / (K + 3).  With log2 b in [B, B + e], B >= 1
    as b >= 2, and log2 x in [A, A + e], k = floor(log2 x) <= A < k + 1, the
    outward quotient for an end x is [A / (B + e), (A + e) / B] if A >= 0, of
    width e (A + B + e) / (B (B + e)) <= e (A + 1); [A / B, (A + e) / (B + e)]
    if A + e <= 0, of width e (B - A) / (B (B + e)) <= e (1 - A); else [A / B,
    (A + e) / B], of width e / B.  It holds log_b x, and its width is below
    e (|k| + 2) < tol.
    """
    lo, hi = RationalInterval(lo, hi)
    tol = _as_fraction(tol)
    if base < 2:
        raise ValueError("base must be >= 2")
    m = (-((-tol.denominator) // tol.numerator)).bit_length()  # bits(ceil(1/tol))
    if base != 2:
        k = max(abs(_floor_log2(*v.as_integer_ratio())) for v in (lo, hi))
        m += max(8, (k + 3).bit_length())
    alo, ahi = log2_interval(lo, m)
    if hi != lo:  # a point, such as every 1x1 radius, needs one logarithm
        ahi = log2_interval(hi, m)[1]
    if base == 2:
        return RationalInterval(alo, ahi)
    blo, bhi = log2_interval(Fraction(base), m)
    return RationalInterval(alo / bhi if alo >= 0 else alo / blo,
                            ahi / blo if ahi >= 0 else ahi / bhi)


class ComplexityInterval(_Interval, namedtuple("ComplexityInterval", "lo hi radius")):
    """Certified complexity interval, with the radius enclosure it came from."""

    __slots__ = ()


def frobenius_complexity(p: int, d: int, tol) -> ComplexityInterval:
    """Certified interval for the base-p log of the count growth rate.

    ``perron_interval`` encloses the growth rate rho to width delta =
    min(tol, 1) * min(m, 4) / 4 <= tol, m the largest diagonal entry of the
    transfer matrix U, and base-p logarithms at tol / 4 map the enclosure,
    which the result keeps as ``radius``.  Its width is at most tol: rho >=
    m >= 1, as U >= U_ii e_i e_i^T and diagonal digit counts are positive.
    Converged, [lo, hi] has hi >= m and hi - lo <= delta <= m / 4, so lo >=
    3m / 4 and ln(hi / lo) <= delta / lo <= min(tol, 1) / 3; as ln p > 2/3,
    log_p(hi / lo) <= min(tol, 1) / 2, and each logarithm adds <= tol / 4.
    An enclosure that stops short of delta raises ``NotConverged``.  The
    upper end is at most d - 1: the enclosure's is at most U's largest
    column sum, which bounds both the largest Collatz-Wielandt ratio and
    Newton's first t, and column j sums to p^(d-1) - M_d(p - 1 - j) <=
    p^(d-1).

    rho is the counts' growth rate when U is primitive and x0 and w are
    nonnegative and nonzero: then w U^e x0 ~ rho^e (w v)(u x0) for Perron
    vectors u, v > 0.  That is checked first, U by its band: U_ij > 0 for
    |i - j| <= 1 makes U irreducible, by paths i -> i +- 1, and primitive,
    as U_ii > 0 (Horn and Johnson, Matrix Analysis, 8.5).  The band always
    holds: U_ij = M_d(p i - j + p - 1), i, j = 1..d - 2, is positive iff 0
    <= p i - j + p - 1 <= d (p - 1), and at j = i - 1, i, i + 1 that is
    (p - 1)(i + 1) + 1, (p - 1)(i + 1) and (p - 1)(i + 1) - 1, all in [0,
    d (p - 1)] as 1 <= i <= d - 2.  A failed condition raises
    ``NotCertified``, naming it; a primitive U without the band fails too.
    """
    tol = _as_fraction(tol)
    system = build_system(p, d)
    m = max(row[i] for i, row in enumerate(system.matrix))
    for holds, condition in (
            (all(min(row[max(i - 1, 0):i + 2]) > 0 for i, row in enumerate(system.matrix)),
             "every entry of the transfer matrix on or beside its diagonal is positive"),
            (min(system.x0) >= 0 and any(system.x0), "x0 is nonnegative and nonzero"),
            (min(system.weights) >= 0 and any(system.weights),
             "the weights are nonnegative and nonzero")):
        if not holds:
            raise NotCertified(f"the growth rate is the spectral radius only if {condition}")
    est = perron_interval(system.matrix, min(tol, 1) * min(m, 4) / 4)
    if not est.converged:
        raise NotConverged(f"the growth-rate enclosure stopped after {est.iterations} "
                           "steps, wider than its tolerance")
    out = log_of_interval(est.lo, est.hi, system.p, tol / 4)
    return ComplexityInterval(out.lo, min(out.hi, d - 1), est)
