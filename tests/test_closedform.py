from fractions import Fraction
from math import comb

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from frobcx.closedform import (
    closed_form_d3,
    complexity_d3,
    known_complexity_expression,
    lower_bound,
)
from frobcx.basep import Prime, digits
from frobcx.enumeration import count_basis_enumeration
from frobcx.errors import GuardExceeded
from frobcx.spectral import frobenius_complexity
from frobcx.transfer import build_system, complexity_term, state

mpmath.mp.dps = 50


def xi_weight(p: int, e: int, i: int) -> int:
    """The first-exponent weight xi_e(i), from the base-p digits of i.

    The reference for ``lower_bound``, which forms each weight inline.
    """
    p = Prime(p)
    if e < 2:
        raise ValueError("xi weights need e >= 2 (top and bottom digit differ)")
    if not 0 <= i < p**e:
        raise ValueError(f"i must lie in [0, p^e), got {i}")
    dig = digits(i, p, e)
    w = (p - 1 - dig[e - 1]) * dig[0]
    for n in range(1, e - 1):
        w *= dig[n] + 1
    return w


def test_closed_form_d3_frozen_values():
    assert closed_form_d3(2, 2) == 1
    assert closed_form_d3(2, 5) == 27
    assert closed_form_d3(3, 2) == 9
    assert closed_form_d3(3, 3) == 54
    # p^e (p-1)^2 (p+1)^(e-2) / 2^e at (5,3): 125 * 16 * 6 / 8
    assert closed_form_d3(5, 3) == 1500
    assert closed_form_d3(7, 2) == 441


def test_closed_form_d3_validates():
    for p, e in ((2, 0), (3, -1), (6, 3), (1, 2)):
        with pytest.raises(ValueError):
            closed_form_d3(p, e)


def test_closed_form_d3_refuses_a_non_integer_level():
    # not the float 3.0
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        closed_form_d3(2, 3.0)


def test_closed_form_d3_first_level():
    # every monomial of degree p - 1 in three variables is a basis monomial
    for p in (2, 3, 5, 7, 101):
        assert closed_form_d3(p, 1) == comb(p + 1, 2) == count_basis_enumeration(p, 3, 1)


def test_closed_form_matches_both_engines():
    for p in (2, 3, 5):
        for e in range(2, 5):
            c = closed_form_d3(p, e)
            assert c == complexity_term(p, 3, e)
    assert closed_form_d3(2, 4) == count_basis_enumeration(2, 3, 4)
    assert closed_form_d3(3, 3) == count_basis_enumeration(3, 3, 3)


def test_complexity_d3_growth_rate():
    assert complexity_d3(2) == 3
    assert complexity_d3(3) == 6
    assert complexity_d3(5) == 15
    assert complexity_d3(11) == 66


def test_xi_weight_frozen():
    # p=2, e=3: digits (c2 c1 c0); weight (1 - c2) * (c1 + 1) * c0
    assert xi_weight(2, 3, 0b001) == 1
    assert xi_weight(2, 3, 0b011) == 2
    assert xi_weight(2, 3, 0b101) == 0
    assert xi_weight(2, 3, 0b000) == 0
    assert xi_weight(3, 2, 4) == 1  # digits (1,1): (3-1-1)*1
    assert xi_weight(3, 2, 2) == 4  # digits (0,2): (3-1-0)*2


def test_xi_weight_validates():
    with pytest.raises(ValueError):
        xi_weight(2, 1, 0)
    with pytest.raises(ValueError):
        xi_weight(2, 3, 8)
    with pytest.raises(ValueError):
        xi_weight(2, 3, -1)


def test_xi_weights_sum_to_d3_count():
    # summing the weights alone (binomial factor 1) reproduces c_{3,e}
    for p in (2, 3, 5):
        for e in (2, 3):
            total = sum(xi_weight(p, e, i) for i in range(p**e))
            assert total == closed_form_d3(p, e)


def test_lower_bound_equals_count_at_d3():
    for p in (2, 3, 5):
        for e in (2, 3, 4):
            assert lower_bound(p, 3, e) == closed_form_d3(p, e)


def test_lower_bound_is_the_xi_weight_sum():
    # the odometer against the sum it evaluates, one weight at a time
    cells = [(p, d, e) for p in (2, 3, 5) for d in range(3, 8) for e in range(2, 5)
             if p**e <= 200]
    assert len(cells) == 40
    for p, d, e in cells:
        expected = sum(xi_weight(p, e, i) * comb(d - 3 + i, i) for i in range(p**e))
        assert lower_bound(p, d, e) == expected, (p, d, e)


def test_lower_bound_below_counts():
    for p, d, e in [(2, 4, 3), (2, 5, 4), (3, 4, 2), (3, 4, 3), (5, 4, 2)]:
        assert lower_bound(p, d, e) <= complexity_term(p, d, e)


def test_lower_bound_guard_and_validation():
    # 2^24 summands trip the fixed 10^7 guard before any work
    with pytest.raises(GuardExceeded) as info:
        lower_bound(2, 4, 24)
    assert info.value.needed == 2**24
    assert info.value.limit == 10**7
    with pytest.raises(ValueError):
        lower_bound(2, 2, 3)
    with pytest.raises(ValueError):
        lower_bound(2, 4, 1)
    for d, e in ((4.5, 3), (4.0, 3), (4, 3.0)):  # not 4.5 floored into the binomials
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            lower_bound(2, d, e)


def test_leading_state_recursion():
    states = [state(build_system(2, 4), n) for n in range(11)]
    assert states[0] == (4, 0)
    assert states[1] == (24, 4)
    assert states[2] == (160, 40)
    # second-order form A_{n+1} = 10 A_n - 20 A_{n-1}
    for n in range(2, 11):
        assert states[n][0] == 10 * states[n - 1][0] - 20 * states[n - 2][0]
    # leading coordinate is the count two levels up
    for n in range(0, 9):
        assert states[n][0] == complexity_term(2, 4, n + 2)


def test_known_expressions():
    assert known_complexity_expression(2, 3) == "log_2(3)"
    assert known_complexity_expression(3, 3) == "1 + log_3(4) - log_3(2)"
    assert known_complexity_expression(2, 4) == "log_2(5 + sqrt(5))"
    assert known_complexity_expression(3, 4) is None
    assert known_complexity_expression(2, 5) is None
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        known_complexity_expression(2, 3.0)


def oracle(p, d):
    if d == 3:
        return 1 + mpmath.log(p + 1, p) - mpmath.log(2, p)
    if (p, d) == (2, 4):
        return mpmath.log(5 + mpmath.sqrt(5), 2)
    raise AssertionError("no oracle")


def test_segre_complexity_contains_closed_forms():
    tol = Fraction(1, 10**9)
    for p, d in [(2, 3), (3, 3), (5, 3), (7, 3), (2, 4)]:
        box = frobenius_complexity(p, d, tol)
        assert box.width <= tol
        target = oracle(p, d)
        assert mpmath.mpf(box.lo.numerator) / box.lo.denominator <= target
        assert mpmath.mpf(box.hi.numerator) / box.hi.denominator >= target


def test_complexity_is_characteristic_dependent():
    # the d=3 complexity 1 + log_p(p+1) - log_p(2) strictly increases in p
    # toward 2 without reaching it: midpoints must be strictly ordered
    mids = []
    for p in (2, 3, 5, 7, 11):
        box = frobenius_complexity(p, 3, Fraction(1, 10**12))
        mids.append((box.lo + box.hi) / 2)
    assert all(a < b for a, b in zip(mids, mids[1:]))
    assert all(1 < m < 2 for m in mids)


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 5]), st.integers(min_value=2, max_value=6))
def test_closed_form_positive_and_growing(p, e):
    assert closed_form_d3(p, e) >= 1
    if e >= 3:
        # ratio of consecutive terms is exactly p(p+1)/2
        num = closed_form_d3(p, e) * 2
        assert num == closed_form_d3(p, e - 1) * p * (p + 1)