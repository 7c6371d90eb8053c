from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from frobcx.enumeration import count_basis_carryvectors
from frobcx.poincare import build_table
from frobcx.transfer import complexity_term


def test_frozen_tables():
    assert build_table(2, 4) == (1, 4, 6, 4, 1)
    assert build_table(3, 2) == (1, 2, 3, 2, 1)
    assert build_table(2, 1) == (1, 1)
    assert build_table(5, 1) == (1, 1, 1, 1, 1)
    assert build_table(3, 3) == (1, 3, 6, 7, 6, 3, 1)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_table(4, 3)
    with pytest.raises(ValueError, match="d must be >= 1"):
        build_table(2, 0)


def test_refuses_a_non_integer_d_whatever_is_cached():
    # the cache is typed: (2, 7.0) never reaches the entry of (2, 7)
    build_table.cache_clear()
    for _ in range(2):  # before and after (2, 7) is built
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build_table(2, 7.0)
        assert build_table(2, 7) == (1, 7, 21, 35, 35, 21, 7, 1)


def test_caching_returns_same_object():
    assert build_table(3, 4) is build_table(3, 4)


def test_engines_share_one_table():
    # every package caller passes p as a Prime, so the typed cache builds
    # (2, 6) once for the transfer and the carry engine
    build_table.cache_clear()
    complexity_term(2, 6, 40)
    count_basis_carryvectors(2, 6, 3)
    assert build_table.cache_info().misses == 1


def brute_coeff(p, d, m):
    return sum(1 for t in product(range(p), repeat=d) if sum(t) == m)


def test_matches_brute_force_digit_count():
    for p, d in [(2, 1), (2, 3), (2, 5), (3, 2), (3, 4), (5, 2), (5, 3)]:
        assert build_table(p, d) == tuple(brute_coeff(p, d, m) for m in range(d * (p - 1) + 1))


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(min_value=1, max_value=7))
def test_row_sum_and_symmetry(p, d):
    table = build_table(p, d)
    top = d * (p - 1)
    assert sum(table) == p**d
    assert all(table[m] == table[top - m] for m in range(top + 1))
    assert table[0] == table[top] == 1
    assert len(table) == top + 1


def convolution_table(p, d):
    """Reference: (1 + t + ... + t^(p-1))^d by repeated convolution, O(d^2 p^2)."""
    coeffs = [1] * p
    for _ in range(d - 1):
        out = [0] * (len(coeffs) + p - 1)
        for i, c in enumerate(coeffs):
            for j in range(p):
                out[i + j] += c
        coeffs = out
    return tuple(coeffs)


def test_prefix_sums_match_the_convolution():
    for p in (2, 3, 5, 7, 11, 13):
        for d in range(1, 14):
            assert build_table(p, d) == convolution_table(p, d), (p, d)


def test_large_prime_matches_inclusion_exclusion():
    # M_d(m) = sum_j (-1)^j C(d, j) C(m - jp + d - 1, d - 1), terms with m < jp dropped
    p, d = 1009, 5
    table = build_table(p, d)
    for m, c in enumerate(table):
        assert c == sum((-1) ** j * comb(d, j) * comb(m - j * p + d - 1, d - 1)
                        for j in range(min(d, m // p) + 1)), m
