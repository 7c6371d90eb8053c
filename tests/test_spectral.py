from dataclasses import replace
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from frobcx import spectral
from frobcx.errors import NotCertified, NotConverged
from frobcx.spectral import (
    RationalInterval,
    char_poly,
    frobenius_complexity,
    log2_interval,
    log_of_interval,
    perron_interval,
)
from frobcx.transfer import CharPoly, build_system

mpmath.mp.dps = 50


def horner(poly, x):
    # the polynomial's value at x by Horner's rule: the reference for
    # spectral._scaled_value and perron_interval's sign check
    out = 0
    for c in reversed(poly.coeffs):
        out = out * x + c
    return out


def test_char_poly_frozen_examples():
    cp = char_poly([[6, 4], [1, 4]])
    assert cp.coeffs == (20, -10, 1)
    assert str(cp) == "x^2 - 10*x + 20"
    assert horner(cp, 0) == 20 and horner(cp, 10) == 20
    assert char_poly([[5]]).coeffs == (-5, 1)
    assert char_poly([[0, 0], [0, 0]]).coeffs == (0, 0, 1)
    assert char_poly([[1, 2], [3, 4]]).coeffs == (-2, -5, 1)


def test_char_poly_rejects_nonsquare():
    with pytest.raises(ValueError):
        char_poly([[1, 2, 3], [4, 5, 6]])


def test_perron_exact_on_dimension_one():
    est = perron_interval([[7]], Fraction(1, 10**9))
    assert (est.lo, est.hi) == (7, 7)
    assert est.converged and est.sign_change


def test_perron_zero_and_trimmed_matrices():
    est = perron_interval([[0, 0], [0, 0]], "1e-6")
    assert (est.lo, est.hi) == (0, 0)
    assert est.sign_change is None
    # nilpotent: strictly upper triangular, no cycle and radius 0
    est = perron_interval([[0, 5], [0, 0]], "1e-6")
    assert (est.lo, est.hi) == (0, 0)
    # a zero row/column beside a diagonal block, which must not be lost
    est = perron_interval([[3, 0], [9, 0]], "1e-6")
    assert (est.lo, est.hi) == (3, 3)
    # the sign is chi's of the whole matrix, x (x - 1), which is positive at
    # lo - tol = -9: no sign change, where chi of [1] alone, x - 1, gives one
    est = perron_interval([[1, 1], [0, 0]], 10)
    assert (est.lo, est.hi, est.sign_change) == (1, 1, False)


def test_perron_rejects_bad_input():
    with pytest.raises(ValueError):
        perron_interval([[1, -2], [0, 1]], "1e-6")
    with pytest.raises(ValueError):
        perron_interval([[1, 2]], "1e-6")
    with pytest.raises(ValueError):
        perron_interval([[1]], 0)


def test_perron_contains_golden_ratio_style_root():
    # [[6,4],[1,4]] has spectral radius 5 + sqrt(5); compare exactly:
    # lo <= 5+sqrt(5) <= hi  <=>  (lo-5)^2 <= 5 <= (hi-5)^2 for endpoints > 5
    est = perron_interval([[6, 4], [1, 4]], Fraction(1, 10**12))
    assert est.converged and est.sign_change
    assert est.lo > 5 and (est.lo - 5) ** 2 <= 5
    assert est.hi > 5 and (est.hi - 5) ** 2 >= 5
    assert est.width <= Fraction(1, 10**12)


def test_perron_unconverged_interval_is_still_valid(monkeypatch):
    # power steps never narrow this periodic matrix from its ratios 1 and 2,
    # so its 4n + 16 = 24th step is its first inverse step; with every solve
    # failing, the loop stops there, and the interval it returns still holds
    # the radius sqrt(2)
    monkeypatch.setattr(spectral, "_shifted_solve", lambda *args: None)
    est = perron_interval([[0, 2], [1, 0]], Fraction(1, 10**12))
    assert (est.lo, est.hi, est.iterations, est.converged) == (1, 2, 24, False)


def test_perron_converges_on_a_reducible_matrix():
    # the Perron vector (1, 0) has a zero entry, so on the whole matrix every
    # positive x keeps the ratio 1 in its second entry and the lower bound at
    # 1; the blocks [2] and [1] are enclosed apart, one step each
    est = perron_interval([[2, 1], [0, 1]], "1e-9")
    assert (est.lo, est.hi, est.iterations, est.converged) == (2, 2, 2, True)
    assert est.sign_change


def test_perron_converges_at_a_width_equal_to_tol():
    # the first step's ratios are the row sums 2 and 1: a width of exactly
    # tol = 1, which converges (the loop's test and the result's agree)
    est = perron_interval([[1, 1], [1, 0]], 1)
    assert (est.lo, est.hi, est.iterations, est.converged) == (1, 2, 1, True)


def test_perron_converges_on_a_periodic_matrix():
    # power steps alternate between two vectors here and never tighten;
    # the shifted inverse steps after them, at sigma = hi + hi / 256 while
    # the bracket is wide, converge to sqrt(2)
    est = perron_interval([[0, 2], [1, 0]], "1e-6")
    assert est.converged and est.width <= Fraction(1, 10**6)
    assert est.lo**2 <= 2 <= est.hi**2


def square_matrices(entries, max_n=6):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n)
    )


def reference_eigenvalues(matrix):
    # mpmath's QR can fail to converge at one precision and converge at a
    # higher one: the second @example below fails at 50 digits and converges
    # at 51-100.  Never retry lower, where a defective eigenvalue would come
    # out too coarse for the slack of the test.
    for dps in (mpmath.mp.dps, 60, 80):
        try:
            with mpmath.workdps(dps):
                return mpmath.eig(mpmath.matrix(matrix), left=False, right=False)
        except RuntimeError:  # qr: failed to converge
            pass
    with mpmath.workdps(100):
        return mpmath.eig(mpmath.matrix(matrix), left=False, right=False)


def reference_radius(matrix):
    eigenvalues = reference_eigenvalues(matrix)
    if len(matrix) == 1:  # mpmath returns (E, EL, ER) for 1x1, whatever the flags
        eigenvalues = eigenvalues[0]
    return max(abs(v) for v in eigenvalues)


@settings(max_examples=80, deadline=None)  # mpmath.eig at n = 6 takes ~30 ms
@given(square_matrices(st.sampled_from([0, 0, 0, 1, 2, 3])))
@example([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]])
@example([[3, 0, 0, 2, 0], [0, 3, 0, 0, 0], [0, 0, 0, 0, 2], [0, 0, 0, 0, 0], [1, 1, 0, 0, 1]])
def test_perron_contains_reference_radius(matrix):
    # indices on no cycle, such as 3 above, which only 0 and 2 lead to or
    # from, must lie in no block, or a ratio gets a zero denominator
    est = perron_interval(matrix, Fraction(1, 10**6))
    radius = reference_radius(matrix)
    # a defective eigenvalue is computed only to about eps^(1/n)
    slack = mpmath.mpf("1e-6")
    assert mpmath.mpf(est.lo.numerator) / est.lo.denominator <= radius + slack
    assert mpmath.mpf(est.hi.numerator) / est.hi.denominator >= radius - slack


@settings(max_examples=80, deadline=None)
@given(square_matrices(st.sampled_from([0, 0, 0, 1, 2, 3]) | st.integers(0, 10**4)),
       st.sampled_from([Fraction(10), Fraction(1, 7), Fraction("1e-3"), Fraction("1e-6"),
                        Fraction("1e-9")]))
@example([[2, 1], [0, 1]], Fraction("1e-6"))
@example([[2, 1, 0], [0, 2, 1], [0, 0, 2]], Fraction("1e-6"))  # a Jordan block at the radius
@example([[0, 4, 1, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]], Fraction("1e-9"))  # periodic
@example([[0, 4462], [9407, 0]], Fraction(10))  # periodic: power steps never narrow it
@example([[0, 267], [17, 1]], Fraction(10))  # nearly periodic: power steps barely narrow it
# weakly coupled: an uncapped shift hi + (hi - lo) stays far above the radius
# here, and these stop at the cap, at [5.32, 25.37] and [6749.7, 7307.0]
@example([[0, 0, 1, 0, 2], [3, 0, 5250, 3, 3215], [0, 0, 0, 1, 0], [3, 3, 3, 0, 0],
          [1, 0, 0, 0, 0]], Fraction(1, 7))
@example([[0, 3, 0, 2, 0, 0], [2, 4204, 3, 0, 0, 8689], [1, 0, 2, 1, 1, 1], [0, 2, 3, 7307, 2, 0],
          [0, 1, 0, 0, 1, 3], [0, 1, 0, 0, 8617, 6376]], Fraction(10))
def test_perron_converges_on_every_nonnegative_matrix(matrix, tol):
    # each block is enclosed alone, so a reducible matrix converges too, also
    # when its Perron vector has zero entries; every inverse step shifts to
    # at most hi + hi / 256, so a periodic or nearly periodic block, where
    # power steps never or barely narrow, converges too, and inverse steps
    # have an allowance of their own after the power steps, so coarse tols
    # converge too
    est = perron_interval(matrix, tol)
    assert est.converged and est.width <= tol
    radius, slack = reference_radius(matrix), mpmath.mpf("1e-6")  # eps^(1/n), as above
    assert mpmath.mpf(est.lo.numerator) / est.lo.denominator <= radius + slack
    assert mpmath.mpf(est.hi.numerator) / est.hi.denominator >= radius - slack


def reachable(rows, i):
    # the indices that a path of nonzero entries, one or more, leads to from i
    seen, todo = set(), [i]
    while todo:
        for j, v in enumerate(rows[todo.pop()]):
            if v and j not in seen:
                seen.add(j)
                todo.append(j)
    return seen


def reference_blocks(rows):
    # the strongly connected blocks that hold a cycle, by search: the
    # reference for spectral._blocks
    reach = [reachable(rows, i) for i in range(len(rows))]
    return {tuple(sorted(j for j in reach[i] if i in reach[j]))
            for i in range(len(rows)) if i in reach[i]}


@settings(max_examples=150, deadline=None)
@given(square_matrices(st.sampled_from([0, 0, 0, 1, 2, 3]), max_n=10))
@example([[0, 1, 0], [1, 0, 1], [0, 0, 1]])
def test_blocks_are_the_strongly_connected_components(matrix):
    assert spectral._blocks(matrix) == reference_blocks(matrix)


def fraction_block_interval(rows, tol):
    # perron_interval's loop on one block as it was with one Fraction per
    # ratio: the reference for its integer-pair loop
    n = len(rows)
    cap = 5 * n + 32 + (-((-tol.denominator) // tol.numerator)).bit_length()
    x = [1] * n
    lo, hi = Fraction(0), Fraction(max(map(sum, rows)))
    it = 0
    while it < cap:
        y = spectral._apply(rows, x)
        ratios = [Fraction(yi, xi) for yi, xi in zip(y, x)]
        lo = max(lo, min(ratios))
        hi = min(hi, max(ratios))
        it += 1
        if hi - lo <= tol:
            break
        if it < 4 * n + 16 and (hi - lo) * 256 > hi:
            shift = max(0, min(y).bit_length() - 32)
            x = [v >> shift for v in y]
            continue
        # reduced pairs, where perron_interval passes unreduced ones
        offset = min(hi - lo, hi / 256)
        gap = spectral._floor_log2(*(hi / offset).as_integer_ratio()) + 1
        bits = (max(x).bit_length() - min(x).bit_length() + 64 + gap
                + min(gap, max(0, spectral._floor_log2(*(hi / tol).as_integer_ratio()) + 1)))
        sigma = (hi + offset).as_integer_ratio()
        tries = (spectral._shifted_solve(rows, *sigma, x, bits << t) for t in range(5))
        if (x := next(filter(None, tries), None)) is None:
            break
    return lo, hi, it


def fraction_perron_interval(matrix, tol):
    # the reference for perron_interval: the Fraction loop on each block of
    # reference_blocks, the largest ends of their intervals, and the sign
    # check of the whole matrix's polynomial
    rows = spectral._validate_matrix(matrix)
    if not (blocks := reference_blocks(rows)):
        return spectral.SpectralEstimate(0, 0)
    found = [fraction_block_interval([[rows[i][j] for j in b] for i in b], tol)
             for b in blocks]
    lo, hi = max(f[0] for f in found), max(f[1] for f in found)
    poly = char_poly(rows)
    sign_change = horner(poly, lo - tol) < 0 < horner(poly, hi + tol)
    return spectral.SpectralEstimate(lo, hi, iterations=sum(f[2] for f in found),
                                     converged=hi - lo <= tol, sign_change=sign_change)


@settings(max_examples=150, deadline=None)
@given(square_matrices(st.sampled_from([0, 0, 0, 1, 2, 3]) | st.integers(0, 10**4), max_n=8),
       st.sampled_from([Fraction("1e-3"), Fraction("1e-9"), Fraction(1, 7), Fraction(10),
                        Fraction("1e-40"), Fraction("1e-100"), Fraction("1e-300")]))
@example([[0, 2], [1, 0]], Fraction("1e-40"))  # periodic
@example([[2, 1, 0], [0, 3, 0], [0, 5, 1]], Fraction("1e-9"))  # reducible
@example([[0, 1], [0, 0]], Fraction(1, 7))  # no cycle
@example([[1, 1], [0, 0]], Fraction(10))  # chi = x (x - 1) > 0 at lo - tol = -9
@example([[10**4] * 8] * 8, Fraction("1e-40"))
@example(build_system(3, 8).matrix, Fraction("1e-300"))  # the CLI's narrowest
def test_perron_matches_the_fraction_ratio_scan(matrix, tol):
    est, ref = perron_interval(matrix, tol), fraction_perron_interval(matrix, tol)
    assert (est.lo, est.hi, est.iterations, est.converged, est.sign_change) == (
        ref.lo, ref.hi, ref.iterations, ref.converged, ref.sign_change)


def sized_integers(max_bits):
    return st.integers(0, max_bits).flatmap(lambda k: st.integers(-(2**k), 2**k))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.just(0) | sized_integers(800), max_size=40), sized_integers(1000),
       sized_integers(1000).map(lambda v: abs(v) + 1))
@example([-6, 1], 4, 2)  # x^2 + x - 6 = (x - 2)(x + 3): zero at 4 / 2
@example([9, 6], -6, 2)  # (x + 3)^2: a double zero at -6 / 2
@example([0, 0, 0], 0, 1)
@example([], -(2**1000) + 1, 2**1000 - 1)
def test_scaled_value_has_the_sign_of_the_fraction_value(low, a, b):
    # perron_interval's sign check, against Horner's rule on the Fraction
    poly = CharPoly((*low, 1))
    value, scaled = horner(poly, Fraction(a, b)), spectral._scaled_value(poly, a, b)
    assert (scaled > 0) - (scaled < 0) == (value > 0) - (value < 0)
    assert scaled == value * b**poly.degree


def positive_integers(max_bits):
    return sized_integers(max_bits).map(lambda v: abs(v) + 1)


@settings(max_examples=300, deadline=None)
@given(positive_integers(2000), positive_integers(2000), positive_integers(200))
@example(2**1000, 1, 1)  # exact powers of two, above and below 1
@example(1, 2**1000, 3)
@example(3 * 2**700, 3, 2**200 - 1)
@example(5 * 2**64 + 1, 5, 7)  # 2^j den +- 1
@example(5 * 2**64 - 1, 5, 7)
@example(7 * 2**300 + 1, 7 * 2**600, 2**200)
@example(7 * 2**300 - 1, 7 * 2**600, 1)
def test_floor_log2_sees_only_the_value(num, den, g):
    # perron_interval passes unreduced pairs
    k = spectral._floor_log2(num, den)
    assert den << max(k, 0) <= num << max(-k, 0)
    assert num << max(-k - 1, 0) < den << max(k + 1, 0)
    assert spectral._floor_log2(g * num, g * den) == k


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(3, 8), st.data(),
       positive_integers(64), positive_integers(200), st.integers(1, 300))
def test_shifted_solve_sees_only_the_value_of_sigma(p, d, data, q, g, bits):
    # sigma = hi + 1 / q, above the radius; the solve rounds sigma at 2^bits,
    # so (g sn, g sd) gives the same z, or the same None
    rows = build_system(p, d).matrix
    x = data.draw(st.lists(positive_integers(64), min_size=len(rows), max_size=len(rows)))
    sn, sd = (perron_interval(rows, "1e-9").hi + Fraction(1, q)).as_integer_ratio()
    z = spectral._shifted_solve(rows, sn, sd, x, bits)
    assert spectral._shifted_solve(rows, g * sn, g * sd, x, bits) == z


@settings(max_examples=100, deadline=None)
@given(square_matrices(st.integers(min_value=-5, max_value=5)))
def test_char_poly_satisfies_cayley_hamilton(matrix):
    n = len(matrix)

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]

    value = [[0] * n for _ in range(n)]
    for c in reversed(char_poly(matrix).coeffs):
        value = mul(value, matrix)
        for i in range(n):
            value[i][i] += c
    assert value == [[0] * n for _ in range(n)]


def test_interval_validation():
    with pytest.raises(ValueError):
        RationalInterval(Fraction(2), Fraction(1))
    box = RationalInterval(1, 2)
    assert box.width == 1 and Fraction(3, 2) in box and 3 not in box


def oracle_log(x, base):
    return mpmath.log(mpmath.mpf(x.numerator) / x.denominator) / mpmath.log(base)


def test_log2_interval_frozen():
    lo, hi = log2_interval(Fraction(3), 40)
    assert hi - lo == Fraction(1, 2**40)
    assert lo <= Fraction(1584962500721156, 10**15) <= hi
    assert log2_interval(Fraction(1), 10) == (0, 0)
    lo, hi = log2_interval(Fraction(1, 4), 20)
    assert lo <= -2 <= hi
    lo, hi = log2_interval(Fraction(1024), 20)
    assert lo <= 10 <= hi


def digit_log2_interval(x: Fraction, m: int) -> tuple[Fraction, Fraction]:
    # log2_interval's method before the atanh series, kept as its reference:
    # square y = x / 2^k in [1, 2) in fixed point, the lower track rounded
    # down and the upper one up, and emit one bit of log2 y per squaring; if
    # the tracks straddle 2, start again with twice the bits
    if x == 1:
        return Fraction(0), Fraction(0)
    k = spectral._floor_log2(x.numerator, x.denominator)
    num, den = x.numerator << max(0, -k), x.denominator << max(0, k)
    bits = m + 16
    while True:
        ylo, yhi, two, acc = (num << bits) // den, -(-(num << bits) // den), 2 << bits, 0
        for s in range(1, m + 1):
            ylo = (ylo * ylo) >> bits
            yhi = -((-(yhi * yhi)) >> bits)
            if ylo >= two:
                ylo >>= 1
                yhi = -((-yhi) >> 1)
                acc |= 1 << (m - s)
            elif yhi >= two:
                break
        else:
            return k + Fraction(acc, 1 << m), k + Fraction(acc + 1, 1 << m)
        bits *= 2


def near_dyadic(m: int, j: int, depth: int) -> Fraction:
    # a rational x with log2 x = j / 2^m + 2^-(m + |depth|) sign(depth), to
    # within 2^-(m + |depth| + 60): the tracks must resolve a digit that close
    gap = mpmath.mpf(2) ** -(m + abs(depth))
    with mpmath.workprec(2 * (m + abs(depth)) + 200):
        y = mpmath.power(2, mpmath.mpf(j) / 2**m + (gap if depth > 0 else -gap))
        scale = 2 ** (m + abs(depth) + 64)
        return Fraction(int(mpmath.floor(y * scale)), scale)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**60),
    st.integers(min_value=1, max_value=10**60),
    st.integers(min_value=-1100, max_value=1100),
    st.integers(min_value=1, max_value=1200),
)
@example(2**200 + 1, 2**200, 0, 150)
@example(2**200 - 1, 2**199, 0, 150)
@example(3, 1, 1100, 1200)
def test_log2_interval_equals_the_digit_method(num, den, shift, m):
    # log2 x is irrational unless x is a power of two, so floor(2^m log2 x)
    # is the one answer both methods certify
    x = Fraction(num, den) * Fraction(2) ** shift
    assert log2_interval(x, m) == digit_log2_interval(x, m)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=1200), st.data(),
       st.integers(min_value=16, max_value=44), st.booleans(),
       st.integers(min_value=-40, max_value=40))
def test_log2_interval_equals_the_digit_method_next_to_a_digit(m, data, depth, above, shift):
    # a random x is rarely near enough to a digit boundary for a rounding
    # error to show.  With g guard bits the tracks are about 2^(5 - g) of a
    # digit apart, so log2 x at 2^-(m + 16..44) from one, tried at every g up
    # to 48, puts each bound to the test where it decides the digit
    j = data.draw(st.integers(min_value=0, max_value=2**m - 1))
    x = near_dyadic(m, j, depth if above else -depth) * Fraction(2) ** shift
    lo, hi = digit_log2_interval(x, m)
    assert log2_interval(x, m) == (lo, hi)
    k = spectral._floor_log2(x.numerator, x.denominator)
    for guard in range(1, 49):
        frac = spectral._log2_bits(x, k, m, guard)
        assert frac is None or k + frac == lo, guard


@pytest.mark.parametrize("x, m", [
    (Fraction(10**60 - 7, 3), 10_000),
    (Fraction(5, 7) * Fraction(2) ** -300, 20_000),
    (Fraction(2**200 + 1, 2**200), 10_000),
    (Fraction(2**200 - 1, 2**199), 10_000),
    (Fraction(2**200 + 1, 2**200), 20_000),
], ids=["m10000", "m20000", "above-1-m10000", "below-2-m10000", "above-1-m20000"])
def test_log2_interval_at_high_precision(x, m):
    lo, hi = log2_interval(x, m)
    assert hi - lo == Fraction(1, 2**m) and (lo * 2**m).denominator == 1
    with mpmath.workprec(m + 64):
        target = mpmath.log(mpmath.mpf(x.numerator) / x.denominator, 2)
        assert mpmath.mpf(lo.numerator) / lo.denominator < target
        assert target < mpmath.mpf(hi.numerator) / hi.denominator


@pytest.mark.parametrize("depth", [86, -86])
def test_log2_interval_retries_when_its_tracks_straddle_a_digit(monkeypatch, depth):
    # log2 x lies 2^-150 from the 64-bit dyadic j / 2^64; the first guard
    # bits resolve about 2^-24 of a digit, so the helper must run again
    m, j = 64, 0x9E3779B97F4A7C15
    x = near_dyadic(m, j, depth)
    guards = []
    helper = spectral._log2_bits

    def counted(x, k, m, guard):
        guards.append(guard)
        return helper(x, k, m, guard)

    monkeypatch.setattr(spectral, "_log2_bits", counted)
    floor = j if depth > 0 else j - 1
    assert log2_interval(x, m) == (Fraction(floor, 2**m), Fraction(floor + 1, 2**m))
    assert len(guards) >= 2


@settings(max_examples=80)
@given(
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=10**9),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=-1100, max_value=1100),
)
# |floor(log2 x)| past 252 takes the wide branch of the precision rule; the
# width is about 2^-m |log2 x| / log2(base)^2, so eight extra bits of m stop
# meeting tol near |log2 x| = 650 for base 3
@example(3, 1, 3, 1100)
@example(10**9 - 7, 3, 7, -1100)
@example(1, 1, 5, -300)
def test_log_interval_contains_oracle(num, den, base, shift):
    x = Fraction(num, den) * Fraction(2) ** shift
    tol = Fraction(1, 10**9)
    box = log_of_interval(x, x, base, tol)
    lo, hi = box.lo, box.hi
    assert hi - lo <= tol
    target = oracle_log(x, base)
    # the oracle carries 50 digits; its error is far below the gap check
    assert mpmath.mpf(lo.numerator) / lo.denominator <= target + mpmath.mpf("1e-30")
    assert mpmath.mpf(hi.numerator) / hi.denominator >= target - mpmath.mpf("1e-30")


def test_log_interval_validates():
    with pytest.raises(ValueError):
        log_of_interval(Fraction(-1), Fraction(-1), 2, "1e-6")
    with pytest.raises(ValueError):
        log_of_interval(Fraction(3), Fraction(3), 1, "1e-6")
    with pytest.raises(ValueError):
        log_of_interval(Fraction(3), Fraction(3), 2, "-1e-6")


def test_log_of_interval_outward():
    box = log_of_interval(Fraction(3), Fraction(4), 2, "1e-9")
    # log2(3) = 1.58496250072115...; the floor sits within tol below it
    assert box.lo <= Fraction(158496250073, 10**11)
    assert box.lo >= Fraction(158496250072, 10**11) - Fraction(1, 10**9)
    assert box.hi >= 2
    assert box.hi <= Fraction(2) + Fraction(1, 10**9)


def test_frobenius_complexity_d3_is_certified():
    # growth rate for d=3 is exactly p(p+1)/2, so the interval must
    # contain log_p of that rational
    for p in (2, 3, 5, 7):
        out = frobenius_complexity(p, 3, Fraction(1, 10**9))
        assert out.width <= Fraction(1, 10**9)
        rate = Fraction(p * (p + 1), 2)
        box = log_of_interval(rate, rate, p, Fraction(1, 10**12))
        lo, hi = box.lo, box.hi
        assert out.lo <= hi and lo <= out.hi
        # the radius enclosure it came from is exact for a 1x1 matrix
        assert (out.radius.lo, out.radius.hi) == (rate, rate)


def test_point_radius_takes_one_logarithm_per_argument(monkeypatch):
    # the d = 3 radius is a point: one log2 for both of its ends, plus one
    # for the base unless the base is 2
    calls = []

    def counted(x, m):
        calls.append(x)
        return log2_interval(x, m)

    monkeypatch.setattr(spectral, "log2_interval", counted)
    for p, expected in [(2, [3]), (3, [6, 3])]:
        calls.clear()
        frobenius_complexity(p, 3, Fraction(1, 10**30))
        assert calls == expected


def test_one_log_of_interval_sums_ln2_once(monkeypatch):
    # lo, hi and the base 3 are taken at one precision, so at one scale w
    calls = []

    def counted(x, m):
        calls.append(m)
        return log2_interval(x, m)

    monkeypatch.setattr(spectral, "log2_interval", counted)
    spectral._atanh_third.cache_clear()
    frobenius_complexity(3, 5, "1e-200")
    info = spectral._atanh_third.cache_info()
    assert len(calls) == 3 and len(set(calls)) == 1
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("tol, message", [
    ("abc", "invalid tolerance 'abc': Invalid literal for Fraction: 'abc'"),
    ("1/0", "invalid tolerance '1/0': Fraction(1, 0)"),
    (float("inf"), "invalid tolerance inf: "),
    (0, "tolerance must be positive"),
], ids=["abc", "1/0", "inf", "0"])
def test_library_refuses_a_bad_tolerance_as_the_cli_does(tol, message):
    # the CLI's complexity and segre print these messages after "error: "
    calls = (lambda: frobenius_complexity(2, 4, tol), lambda: perron_interval([[2]], tol),
             lambda: log_of_interval(2, 3, 3, tol))
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value).startswith(message)


@pytest.mark.parametrize("tol",["1e-3", "1e-9", "1/7", "10", "1e-100"])
def test_frobenius_complexity_meets_its_width(tol):
    # the radius tolerance is fixed in advance, and the one perron_interval
    # call must meet both widths; the pairs are the golden grid's, and
    # three wider transfer matrices
    tol = Fraction(tol)
    for p, d in [(2, 3), (3, 3), (5, 3), (2, 4), (3, 4), (2, 5), (5, 5), (2, 8),
                 (3, 12), (7, 9), (2, 24)]:
        out = frobenius_complexity(p, d, tol)
        assert out.radius.converged, (p, d)
        assert out.width <= tol and out.radius.width <= tol, (p, d)
        assert out.radius.lo <= out.radius.hi


def test_frobenius_complexity_refuses_an_unconverged_enclosure(monkeypatch):
    # the enclosure is valid but wider than tol, so no interval is returned
    monkeypatch.setattr(spectral, "_shifted_solve", lambda *args: None)
    with pytest.raises(NotConverged, match="stopped after 10 steps"):
        frobenius_complexity(2, 6, "1e-9")


def _cycle(n):
    return tuple(tuple(int(j == (i + 1) % n) for j in range(n)) for i in range(n))


@pytest.mark.parametrize("change, condition", [
    # the diagonal alone: n blocks of one index each
    (lambda s: {"matrix": tuple(tuple(v * (i == j) for j, v in enumerate(row))
                                for i, row in enumerate(s.matrix))},
     "the transfer matrix is one strongly connected block"),
    (lambda s: {"matrix": _cycle(s.dim)},  # irreducible, period n
     "some diagonal entry of the transfer matrix is positive"),
    (lambda s: {"x0": (0,) * s.dim}, "x0 is nonnegative and nonzero"),
    (lambda s: {"weights": (-1, *s.weights[1:])}, "the weights are nonnegative and nonzero"),
])
def test_frobenius_complexity_refuses_an_uncertified_growth_rate(monkeypatch, change, condition):
    def changed(p, d):
        system = build_system(p, d)
        return replace(system, **change(system))

    monkeypatch.setattr(spectral, "build_system", changed)
    with pytest.raises(NotCertified, match=f"spectral radius only if {condition}$"):
        frobenius_complexity(2, 6, "1e-9")


def test_growth_rate_is_the_spectral_radius():
    # c_e = w . U^(e-2) x0 for e >= 2.  An irreducible U with a positive
    # diagonal is primitive, so U^k / rho^k tends to v u^T with positive
    # Perron vectors v and u, u . v = 1; nonnegative, nonzero w and x0 give
    # c_e ~ (w . v)(u . x0) rho^(e-2), both factors positive, and so
    # c_e^(1/e) -> rho.  One block holds every index, so perron_interval
    # encloses the radius of this same U in one piece.
    assert spectral._blocks(((1, 1), (0, 1))) == {(0,), (1,)}
    for p in (2, 3, 5, 7, 11):
        for d in range(3, 30):
            system = build_system(p, d)
            u = system.matrix
            assert all(u[i][i] > 0 for i in range(len(u))), (p, d)
            assert spectral._blocks(u) == {tuple(range(len(u)))}, (p, d)
            for vector in (system.x0, system.weights):
                assert min(vector) >= 0 and any(vector), (p, d)


def test_radius_lies_between_its_large_p_limit_and_p_to_the_d_minus_1():
    # as p grows, U / p^(d-1) tends to a rank-one matrix of eigenvalue
    # alpha_d = 1 - 1/(d-1)!, and rho / p^(d-1) falls towards alpha_d.  The
    # upper end is proved: column j of U sums to p^(d-1) - M_d(p - 1 - j),
    # less at j = 1, and U is irreducible.  The lower end, alpha_d p^(d-1)
    # < rho, is observed on this grid, not proved.  The width is far below
    # the least gap, about 2e-14 p^(d-1) at (13, 12)
    for p in (2, 3, 5, 7, 11, 13, 101):
        for d in range(3, 13 if p < 101 else 9):
            top = p ** (d - 1)
            radius = perron_interval(build_system(p, d).matrix, Fraction(top, 10**20))
            assert (1 - Fraction(1, factorial(d - 1))) * top < radius.lo, (p, d)
            assert radius.hi < top, (p, d)


def test_complexity_lies_between_its_large_p_limit_and_d_minus_1():
    # the radius bounds above through log_p: d - 1 + log_p alpha_d < lo and
    # hi < d - 1, the lower end observed, not proved.  The least lower margin
    # on this grid is about 7e-15, so tol is far below it
    for p in (2, 3, 5, 7, 11, 13, 101):
        for d in range(3, 13 if p < 101 else 9):
            out = frobenius_complexity(p, d, Fraction(1, 10**30))
            assert out.hi < d - 1, (p, d)
            with mpmath.workdps(60):
                limit = d - 1 + mpmath.log(1 - 1 / mpmath.factorial(d - 1), p)
                assert mpmath.mpf(out.lo.numerator) / out.lo.denominator > limit, (p, d)


def test_frobenius_complexity_rejects_small_d():
    # build_system's refusals, p and d checked after the tolerance
    with pytest.raises(ValueError, match="no transfer system for d <= 2"):
        frobenius_complexity(2, 2, "1e-6")
    with pytest.raises(ValueError, match="4 is not prime"):
        frobenius_complexity(4, 3, "1e-6")
    with pytest.raises(ValueError, match="tolerance must be positive"):
        frobenius_complexity(4, 2, 0)


def test_transfer_systems_have_sign_change_certificates():
    # p = 2, d = 24, 30, 40 are certify's wide points: chi of degree up to 38
    # with coefficients of about 780 bits, whose sign CharPoly also takes
    tol = Fraction("1e-8")
    for p, d in [(2, 4), (2, 5), (3, 4), (5, 4), (2, 24), (2, 30), (2, 40)]:
        system = build_system(p, d)
        est = perron_interval(system.matrix, tol)
        assert est.converged and est.sign_change
        poly = char_poly(system.matrix)
        assert horner(poly, est.lo - tol) < 0 < horner(poly, est.hi + tol)
