from fractions import Fraction
from math import factorial

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from frobcx import spectral
from frobcx.cli import _VERIFY_GRID, main
from frobcx.errors import NotCertified, NotConverged
from frobcx.spectral import (
    RationalInterval,
    char_poly,
    frobenius_complexity,
    log2_interval,
    log_of_interval,
    perron_interval,
)
from frobcx.transfer import build_system
from strategies import digit_count

mpmath.mp.dps = 50


def horner(poly, x):
    # the polynomial's value at x by Horner's rule: the reference for
    # spectral._scaled_value and sign_change below
    out = 0
    for c in reversed(poly):
        out = out * x + c
    return out


def sign_change(matrix, est, tol):
    # whether chi is negative at lo - tol and positive at hi + tol, a
    # cross-check of an enclosure that succeeds when the radius is a simple
    # isolated real root; None when no cycle runs through the matrix, whose
    # radius is then 0
    poly = char_poly(matrix)
    if not any(poly[:-1]):
        return None
    return horner(poly, est.lo - tol) < 0 < horner(poly, est.hi + tol)


def refuse_chi(rows):
    raise AssertionError(f"chi ran at n = {len(rows)}")


def test_char_poly_frozen_examples():
    cp = char_poly([[6, 4], [1, 4]])
    assert cp == (20, -10, 1)
    assert horner(cp, 0) == 20 and horner(cp, 10) == 20
    assert char_poly([[5]]) == (-5, 1)
    assert char_poly([[0, 0], [0, 0]]) == (0, 0, 1)
    assert char_poly([[1, 2], [3, 4]]) == (-2, -5, 1)


def test_char_poly_rejects_nonsquare():
    with pytest.raises(ValueError):
        char_poly([[1, 2, 3], [4, 5, 6]])


def test_perron_exact_on_dimension_one(monkeypatch):
    # the one ratio of 1^T U to 1^T is u, the radius itself, in one step and
    # without chi; every d = 3 transfer matrix is 1 x 1
    monkeypatch.setattr(spectral, "char_poly", refuse_chi)
    for matrix in [[[7]], [[10**6]]] + [build_system(p, 3).matrix for p in (2, 3, 5, 7, 101)]:
        est = perron_interval(matrix, Fraction(1, 10**9))
        assert (est.lo, est.hi, est.iterations) == (matrix[0][0], matrix[0][0], 1)
        assert est.converged and sign_change(matrix, est, Fraction(1, 10**9))


def test_perron_zero_and_trimmed_matrices():
    tol = Fraction("1e-6")
    est = perron_interval([[0, 0], [0, 0]], tol)
    assert (est.lo, est.hi, sign_change([[0, 0], [0, 0]], est, tol)) == (0, 0, None)
    # nilpotent: strictly upper triangular, no cycle, chi = x^2 and radius 0
    est = perron_interval([[0, 5], [0, 0]], tol)
    assert (est.lo, est.hi, sign_change([[0, 5], [0, 0]], est, tol)) == (0, 0, None)
    # a zero row/column beside a diagonal block, which must not be lost
    est = perron_interval([[3, 0], [9, 0]], "1e-6")
    assert 3 in est and est.width <= Fraction(1, 10**6) and est.converged
    # the sign is chi's of the whole matrix, x (x - 1), which is positive at
    # lo - tol <= -9: no sign change, where chi of [1] alone, x - 1, gives one
    est = perron_interval([[1, 1], [0, 0]], 10)
    assert 1 in est and est.width <= 10 and est.converged
    assert sign_change([[1, 1], [0, 0]], est, 10) is False


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
    assert est.converged and sign_change([[6, 4], [1, 4]], est, Fraction(1, 10**12))
    assert est.lo > 5 and (est.lo - 5) ** 2 <= 5
    assert est.hi > 5 and (est.hi - 5) ** 2 >= 5
    assert est.width <= Fraction(1, 10**12)


newton = spectral._newton


def stopped_at_width_one(coeffs, top, tn, td):
    # the Newton loop stopped as soon as its width is at most 1
    return newton(coeffs, top, 1, 1)


def test_perron_unconverged_interval_is_still_valid(monkeypatch):
    # a loop that stops early, here at width 1, is not converged at tol
    # 1e-12, and the interval it returns still holds the radius sqrt(2)
    monkeypatch.setattr(spectral, "_newton", stopped_at_width_one)
    est = perron_interval([[0, 2], [1, 0]], Fraction(1, 10**12))
    assert not est.converged and 0 < est.width <= 1
    assert est.lo**2 <= 2 <= est.hi**2


def test_perron_converges_on_a_reducible_matrix():
    # the Perron vector (1, 0) has a zero entry, where the ratio bounds of a
    # positive vector stall at 1; chi = (x - 2)(x - 1) has no such case
    est = perron_interval([[2, 1], [0, 1]], "1e-9")
    assert 2 in est and est.width <= Fraction(1, 10**9) and est.converged
    assert sign_change([[2, 1], [0, 1]], est, Fraction(1, 10**9))


def test_perron_converges_at_a_width_equal_to_tol():
    # the golden ratio from the row sum 2 at tol 1: the loop's width test
    # and the result's agree
    est = perron_interval([[1, 1], [1, 0]], 1)
    assert est.converged and est.width <= 1
    assert est.lo**2 - est.lo <= 1 <= est.hi**2 - est.hi


def test_perron_converges_on_a_periodic_matrix():
    # the eigenvalues are sqrt(2) and -sqrt(2), as far from the radius as
    # the period allows; Newton's steps from the row sum 2 converge to sqrt(2)
    est = perron_interval([[0, 2], [1, 0]], "1e-6")
    assert est.converged and est.width <= Fraction(1, 10**6)
    assert est.lo**2 <= 2 <= est.hi**2
    # chi = x^2 - 4462 * 9407: quadratic convergence from the row sum 9407,
    # where the ratio bounds of power steps never narrow
    est = perron_interval([[0, 4462], [9407, 0]], 10)
    assert est.converged and est.iterations <= 6
    assert est.lo**2 <= 4462 * 9407 <= est.hi**2


def test_perron_converges_on_a_double_root():
    # diag(B, B) has chi = (x^2 - 10 x + 20)^2: 5 + sqrt(5) is a double root,
    # where Newton's steps converge linearly
    tol = Fraction(1, 10**40)
    est = perron_interval([[6, 4, 0, 0], [1, 4, 0, 0], [0, 0, 6, 4], [0, 0, 1, 4]], tol)
    assert est.converged and est.width <= tol
    assert est.lo > 5 and (est.lo - 5) ** 2 <= 5 <= (est.hi - 5) ** 2


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


def start(matrix):
    # perron_interval's first t: the smaller of the largest row and column sums
    return min(max(map(sum, matrix)), max(map(sum, zip(*matrix))))


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
       st.fractions(min_value=Fraction(1, 10**6), max_value=100, max_denominator=10**6))
@example([[0, 2], [1, 0]], Fraction(1, 10**6))  # periodic: -rho is a root too
@example([[2, 1, 0], [0, 2, 1], [0, 0, 2]], Fraction(1, 10**6))  # a triple root at the radius
@example([[6, 4, 0, 0], [1, 4, 0, 0], [0, 0, 6, 4], [0, 0, 1, 4]], Fraction(1))  # double root
def test_newton_step_brackets_the_radius(matrix, above):
    # perron_interval's certificate: at rational t above its start, the
    # smaller of the largest row and column sums, so above the radius,
    # delta = chi(t) / chi'(t) has rho in [t - n delta, t - delta]
    n, t = len(matrix), start(matrix) + above
    poly = char_poly(matrix)
    delta = horner(poly, t) / sum(k * c * t ** (k - 1) for k, c in enumerate(poly) if k)
    radius, slack = reference_radius(matrix), mpmath.mpf("1e-6")  # eps^(1/n), as below
    lo, hi = t - n * delta, t - delta
    assert 0 < delta <= t
    assert mpmath.mpf(lo.numerator) / lo.denominator <= radius + slack
    assert mpmath.mpf(hi.numerator) / hi.denominator >= radius - slack


@settings(max_examples=80, deadline=None)
@given(square_matrices(st.sampled_from([0, 0, 0, 1, 2, 3]) | st.integers(0, 10**4)),
       st.sampled_from([Fraction(10), Fraction(1, 7), Fraction("1e-3"), Fraction("1e-6"),
                        Fraction("1e-9")]))
@example([[2, 1], [0, 1]], Fraction("1e-6"))
@example([[2, 1, 0], [0, 2, 1], [0, 0, 2]], Fraction("1e-6"))  # a Jordan block at the radius
@example([[0, 4, 1, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]], Fraction("1e-9"))  # periodic
@example([[0, 4462], [9407, 0]], Fraction(10))  # periodic: power steps never narrow it
@example([[0, 267], [17, 1]], Fraction(10))  # nearly periodic: power steps barely narrow it
# weakly coupled: shifted inverse steps at hi + (hi - lo) stopped at their cap
# here, at [5.32, 25.37] and [6749.7, 7307.0]
@example([[0, 0, 1, 0, 2], [3, 0, 5250, 3, 3215], [0, 0, 0, 1, 0], [3, 3, 3, 0, 0],
          [1, 0, 0, 0, 0]], Fraction(1, 7))
@example([[0, 3, 0, 2, 0, 0], [2, 4204, 3, 0, 0, 8689], [1, 0, 2, 1, 1, 1], [0, 2, 3, 7307, 2, 0],
          [0, 1, 0, 0, 1, 3], [0, 1, 0, 0, 8617, 6376]], Fraction(10))
def test_perron_converges_on_every_nonnegative_matrix(matrix, tol):
    # reducible, periodic and nearly periodic matrices, and coarse tols;
    # the examples stopped short of tol in earlier enclosure loops
    est = perron_interval(matrix, tol)
    assert est.converged and est.width <= tol
    radius, slack = reference_radius(matrix), mpmath.mpf("1e-6")  # eps^(1/n), as above
    assert mpmath.mpf(est.lo.numerator) / est.lo.denominator <= radius + slack
    assert mpmath.mpf(est.hi.numerator) / est.hi.denominator >= radius - slack


def fraction_newton(coeffs, top, tn, td):
    # _newton's loop with lo and the width test in Fractions: the reference
    # for its integer bookkeeping
    n = len(coeffs) - 1
    bmax = (-(-td // tn)).bit_length() + 2 * n.bit_length() + 2
    a, b = top, 0
    for step in range(1, n * (bmax + top.bit_length()) + 65):
        v, dv = spectral._scaled_value(coeffs, a, 1 << b)
        if v == 0:
            lo = Fraction(a, 1 << b)
            break
        e = min(bmax, max(b, 2 * (a * dv // v).bit_length() + 32))
        lo = Fraction(((a * dv - n * v) << e - b) // dv, 1 << e)
        a, b = -(-((a * dv - v) << e - b) // dv), e
        if (Fraction(a, 1 << b) - lo) * td <= tn:
            break
    return lo, Fraction(a, 1 << b), step


@settings(max_examples=100, deadline=None)
@given(square_matrices(st.sampled_from([0, 0, 0, 1, 2, 3]) | st.integers(0, 10**4), max_n=8),
       st.integers(1, 400))
@example([[6, 4, 0, 0], [1, 4, 0, 0], [0, 0, 6, 4], [0, 0, 1, 4]], 400)  # double root
@example([[7]], 1)  # chi(top) = 0: a point in one step
def test_integer_newton_equals_the_fraction_loop(matrix, k):
    # the same lo, hi and steps from the same start, at tol 2^-k
    coeffs = char_poly(matrix)
    assume(any(coeffs[:-1]))  # chi = x^n never reaches _newton
    top = start(matrix)
    assert spectral._newton(coeffs, top, 1, 1 << k) == fraction_newton(coeffs, top, 1, 1 << k)


def test_transfer_enclosure_needs_no_chi_at_wide_points(monkeypatch):
    # 1^T is almost a left Perron vector of U: at p = 2 only column 1 falls
    # short of 2^(d-1), by 1, so a few ratio steps meet tol, where chi at
    # d = 200 alone takes most of a minute
    monkeypatch.setattr(spectral, "char_poly", refuse_chi)
    for d in (24, 30, 40):
        est = perron_interval(build_system(2, d).matrix, "1e-9")
        assert est.converged and est.width <= Fraction(1, 10**9), d
        assert est.iterations <= 5 and est.hi <= 2 ** (d - 1), d
    out = frobenius_complexity(2, 200, Fraction(1, 10**300))
    assert 0 < out.lo < out.hi <= 199 and out.hi - out.lo <= Fraction(1, 10**300)
    assert out.radius.hi <= 2**199 and out.radius.converged


@settings(max_examples=100, deadline=None)
@given(square_matrices(st.sampled_from([0, 0, 0, 1, 2, 3]) | st.integers(0, 10**4), max_n=8),
       st.integers(1, 400))
@example([[7]], 1)
@example([[1, 2], [3, 2]], 400)  # equal column sums: a point in one step
@example([[0, 2], [1, 0]], 1)  # periodic: the ratios never narrow
def test_collatz_wielandt_bounds_meet_the_newton_enclosure(matrix, k):
    # whenever the ratio bounds decide, at tol 2^-k, they are no wider than
    # tol, below the largest column sum, and meet Newton's enclosure of the
    # same chi at 2^-200
    est = spectral._collatz_wielandt(matrix, 1, 1 << k)
    if est is None:
        return
    assert est.converged and est.width <= Fraction(1, 1 << k)
    assert est.hi <= max(map(sum, zip(*matrix)))
    lo, hi, _ = spectral._newton(char_poly(matrix), start(matrix), 1, 1 << 200)
    assert est.lo <= hi and lo <= est.hi


@settings(max_examples=60, deadline=None)
@given(square_matrices(st.sampled_from([0, 0, 0, 1, 2, 3]) | st.integers(0, 10**4), max_n=8),
       st.integers(0, 3))
def test_equal_column_sums_give_a_point_in_one_step(matrix, extra):
    # 1^T U = s 1^T: 1 is a left Perron vector and s the radius, as with
    # every 1 x 1 matrix [[s]]; the last row tops each column up to s
    s = max(map(sum, zip(*matrix))) + extra
    assume(s > 0)
    matrix[-1] = [v + s - sum(col) for v, col in zip(matrix[-1], zip(*matrix))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "char_poly", refuse_chi)
        est = perron_interval(matrix, Fraction(1, 10**9))
    assert (est.lo, est.hi, est.iterations, est.converged) == (s, s, 1, True)


def test_matrices_the_ratios_cannot_decide_keep_their_newton_results():
    # the enclosures Newton's method gave before the ratio bounds ran first:
    # periodic, where they never narrow; a zero column, where 1^T U has a
    # zero entry; and [[0]], with no cycle
    tol = Fraction(1, 10**6)
    for matrix, lo, hi, steps in (
            ([[0, 2], [1, 0]], Fraction(94906265, 67108864), Fraction(47453133, 33554432), 5),
            ([[3, 0], [9, 0]], Fraction(201326591, 67108864), Fraction(201326593, 67108864), 7),
            ([[0]], 0, 0, 0)):
        est = perron_interval(matrix, tol)
        assert (est.lo, est.hi, est.iterations, est.converged) == (lo, hi, steps, True), matrix


def test_certify_pin_computes_chi_once_inside_perron_interval(monkeypatch, capsys):
    # complexity --p 2 --d 6 --tol 1e-20: the ratio bounds give up at step 2,
    # and Newton's method certifies the radius on the 4 x 4 matrix's chi
    calls, inside = [], []
    enclose = spectral.perron_interval

    def traced_enclose(matrix, tol):
        inside.append(True)
        try:
            return enclose(matrix, tol)
        finally:
            inside.pop()

    def traced_chi(rows):
        calls.append((len(rows), bool(inside)))
        return char_poly(rows)

    monkeypatch.setattr(spectral, "perron_interval", traced_enclose)
    monkeypatch.setattr(spectral, "char_poly", traced_chi)
    assert main(["complexity", "--p", "2", "--d", "6", "--tol", "1e-20"]) == 0
    capsys.readouterr()
    assert calls == [(4, True)]


def test_upper_ends_are_at_most_p_to_the_d_minus_1_and_d_minus_1():
    # every column sum of U is at most p^(d-1), the enclosure starts at most
    # there and never rises, and the complexity is capped at d - 1, as a
    # logarithm of 2^(d-1) itself has an upper end above d - 1
    points = [(p, d) for p, d_range, _ in _VERIFY_GRID for d in d_range if d >= 3]
    for p, d in points + [(2, d) for d in range(24, 41)]:
        assert max(map(sum, zip(*build_system(p, d).matrix))) <= p ** (d - 1), (p, d)
        out = frobenius_complexity(p, d, "1e-9")
        assert out.radius.hi <= p ** (d - 1) and out.hi <= d - 1, (p, d)


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
    # perron_interval's Newton step, against Horner's rule
    # on the Fraction
    poly = (*low, 1)
    x = Fraction(a, b)
    value = horner(poly, x)
    slope = sum(k * c * x ** (k - 1) for k, c in enumerate(poly) if k)
    scaled, scaled_slope = spectral._scaled_value(poly, a, b)
    assert (scaled > 0) - (scaled < 0) == (value > 0) - (value < 0)
    assert scaled == value * b ** (len(poly) - 1)
    assert scaled_slope * b == slope * b ** (len(poly) - 1)


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


@settings(max_examples=100, deadline=None)
@given(square_matrices(st.integers(min_value=-5, max_value=5), max_n=18))
def test_char_poly_satisfies_cayley_hamilton(matrix):
    n = len(matrix)

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]

    value = [[0] * n for _ in range(n)]
    for c in reversed(char_poly(matrix)):
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
    with pytest.raises(ValueError, match="^m must be >= 1$"):
        log2_interval(Fraction(3), 0)
    with pytest.raises(ValueError, match="^interval endpoints out of order$"):
        log_of_interval(Fraction(4), Fraction(3), 2, "1e-6")
    with pytest.raises(ValueError):
        log_of_interval(Fraction(-1), Fraction(-1), 2, "1e-6")
    with pytest.raises(ValueError):
        log_of_interval(Fraction(3), Fraction(3), 1, "1e-6")
    with pytest.raises(ValueError):
        log_of_interval(Fraction(3), Fraction(3), 2, "-1e-6")
    # no truncation: a fractional m or base is refused, not rounded
    with pytest.raises(TypeError):
        log2_interval(1, 2.5)
    with pytest.raises(TypeError):
        log_of_interval(2, 3, 2.5, "1e-6")


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
    monkeypatch.setattr(spectral, "_newton", stopped_at_width_one)
    with pytest.raises(NotConverged, match="stopped after 1 steps"):
        frobenius_complexity(2, 6, "1e-9")


def _cycle(n):
    return tuple(tuple(int(j == (i + 1) % n) for j in range(n)) for i in range(n))


BAND = "every entry of the transfer matrix on or beside its diagonal is positive"


@pytest.mark.parametrize("change, condition", [
    # the ids of the first two cases name the property of a primitive
    # matrix that each one lacks
    # the diagonal alone: n blocks of one index each
    pytest.param(lambda s: {"matrix": tuple(tuple(v * (i == j) for j, v in enumerate(row))
                                            for i, row in enumerate(s.matrix))}, BAND,
                 id="<lambda>-the transfer matrix is one strongly connected block"),
    pytest.param(lambda s: {"matrix": _cycle(s.dim)}, BAND,  # irreducible, period n
                 id="<lambda>-some diagonal entry of the transfer matrix is positive"),
    # primitive, as its square is positive, but U_01 = 0: the band check is
    # sufficient for primitivity, not necessary
    (lambda s: {"matrix": tuple(tuple(int((i, j) != (0, 1)) for j in range(s.dim))
                                for i in range(s.dim))}, BAND),
    (lambda s: {"x0": (0,) * s.dim}, "x0 is nonnegative and nonzero"),
    (lambda s: {"weights": (-1, *s.weights[1:])}, "the weights are nonnegative and nonzero"),
])
def test_frobenius_complexity_refuses_an_uncertified_growth_rate(monkeypatch, change, condition):
    def changed(p, d):
        system = build_system(p, d)
        return system._replace(**change(system))

    monkeypatch.setattr(spectral, "build_system", changed)
    with pytest.raises(NotCertified, match=f"spectral radius only if {condition}$"):
        frobenius_complexity(2, 6, "1e-9")


@pytest.mark.parametrize("call", [
    lambda: frobenius_complexity(2.9, 4, "1e-9"),  # not p = 2's complexity
    lambda: perron_interval([[2.5]], "1e-9"),  # not the point [2, 2]
    lambda: char_poly([[2.9, 1], [0, 1]]),  # not x^2 - 3x + 2
])
def test_non_integral_p_and_entries_are_refused(call):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


def test_growth_rate_is_the_spectral_radius():
    # c_e = w . U^(e-2) x0 for e >= 2.  An irreducible U with a positive
    # diagonal is primitive, so U^k / rho^k tends to v u^T with positive
    # Perron vectors v and u, u . v = 1; nonnegative, nonzero w and x0 give
    # c_e ~ (w . v)(u . x0) rho^(e-2), both factors positive, and so
    # c_e^(1/e) -> rho.  U is positive on its diagonal and beside it, so
    # irreducible with a positive diagonal
    points = [(p, d) for p in (2, 3, 5, 7, 11) for d in range(3, 30)]
    for p, d in points + [(101, d) for d in range(3, 9)]:
        system = build_system(p, d)
        u = system.matrix
        assert all(u[i][j] > 0 for i in range(len(u))
                   for j in range(max(i - 1, 0), min(i + 2, len(u)))), (p, d)
        for vector in (system.x0, system.weights):
            assert min(vector) >= 0 and any(vector), (p, d)


def _bareiss_det(rows):
    # the determinant of an integer matrix by fraction-free elimination: each
    # division is exact (Bareiss 1968)
    a, sign, last = [list(row) for row in rows], 1, 1
    n = len(a)
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // last
        last = a[k][k]
    return sign * a[-1][-1]


def _scaled_chi_at_the_limit(p, d):
    # g_d(p) = ((d-1)!)^n chi(alpha_d p^(d-1)), alpha_d = 1 - 1/(d-1)!: the
    # determinant of ((d-1)! - 1) p^(d-1) I - (d-1)! U(p), U(p)[i][j] =
    # M_d(p*i - j + p - 1), i, j = 1..d-2, the entries build_system's matrix
    # has in test_transfer.py
    f, n = factorial(d - 1), d - 2
    return _bareiss_det([[(f - 1) * p ** (d - 1) * (i == j)
                          - f * digit_count(p, d, p * i - j + p - 1)
                          for j in range(1, n + 1)] for i in range(1, n + 1)])


def prove_radius_above_its_large_p_limit(d):
    # the lower end alpha_d p^(d-1) < rho, proved for every prime p at this
    # d >= 3.  chi is monic, so g_d(p) < 0 puts a real root, and so rho,
    # above alpha_d p^(d-1).  For p >= d - 1 each entry of (d-1)! U(p) is an
    # integer polynomial in p of degree d - 1 (every M_d term has m - kp >=
    # 0 or none), so g_d is one of degree at most N = n(d - 1).  Interpolated
    # in s = p - (d - 1) through s = 0..N by forward differences, and checked
    # at s = N + 1 and N + 2, it has every coefficient in s negative but the
    # zero one of s^N, so g_d < 0 for every real p >= d - 1.  The primes
    # below d - 1 are checked one by one.  Nothing here calls build_table,
    # build_system or char_poly.  CI runs it for d = 13..20
    n, base = d - 2, d - 1
    deg = n * (d - 1)
    values = [_scaled_chi_at_the_limit(base + s, d) for s in range(deg + 3)]
    diffs, row = [], values[:deg + 1]
    while row:  # diffs[k] = (Delta^k g)(0)
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    # N! g(s) = sum_k diffs[k] N!/k! s(s-1)...(s-k+1), by Horner from the top
    scaled = [diffs[deg]]
    for k in range(deg - 1, -1, -1):
        scaled = [u - k * v for u, v in zip([0, *scaled], [*scaled, 0])]
        scaled[0] += diffs[k] * factorial(deg) // factorial(k)
    coeffs = [c // factorial(deg) for c in scaled]
    assert [c * factorial(deg) for c in coeffs] == scaled, d  # integer coefficients
    for s in (deg + 1, deg + 2):
        assert sum(c * s**k for k, c in enumerate(coeffs)) == values[s], (d, s)
    # s^N's is 0: U's leading term in p has rank one and eigenvalue alpha_d
    assert coeffs[-1] == 0 and all(c < 0 for c in coeffs[:-1]), d
    for p in range(2, base):
        if all(p % q for q in range(2, p)):  # the primes below d - 1
            assert _scaled_chi_at_the_limit(p, d) < 0, (p, d)


def test_radius_lies_above_its_large_p_limit_for_every_prime():
    for d in range(3, 13):
        prove_radius_above_its_large_p_limit(d)


def test_radius_lies_between_its_large_p_limit_and_p_to_the_d_minus_1():
    # as p grows, U / p^(d-1) tends to a rank-one matrix of eigenvalue
    # alpha_d = 1 - 1/(d-1)!, and rho / p^(d-1) falls towards alpha_d.  The
    # upper end is proved: column j of U sums to p^(d-1) - M_d(p - 1 - j),
    # less at j = 1, and U is irreducible.  The lower end, alpha_d p^(d-1)
    # < rho, is proved for d = 3..12, this grid's d, by the test above.  The
    # width is far below the least gap, about 2e-14 p^(d-1) at (13, 12)
    for p in (2, 3, 5, 7, 11, 13, 101):
        for d in range(3, 13 if p < 101 else 9):
            top = p ** (d - 1)
            radius = perron_interval(build_system(p, d).matrix, Fraction(top, 10**20))
            assert (1 - Fraction(1, factorial(d - 1))) * top < radius.lo, (p, d)
            assert radius.hi < top, (p, d)


def test_complexity_lies_between_its_large_p_limit_and_d_minus_1():
    # the radius bounds above through log_p: d - 1 + log_p alpha_d < lo and
    # hi < d - 1, both proved for this grid's d.  The least lower margin
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
    # with coefficients of about 780 bits, whose sign the helper takes at
    # lo - tol and hi + tol by Horner's rule on Fractions
    tol = Fraction("1e-8")
    for p, d in [(2, 4), (2, 5), (3, 4), (5, 4), (2, 24), (2, 30), (2, 40)]:
        system = build_system(p, d)
        est = perron_interval(system.matrix, tol)
        assert est.converged
        assert sign_change(system.matrix, est, tol)
