import re
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from frobcx import cli
from frobcx.closedform import closed_form_d3
from frobcx.enumeration import count_basis_carryvectors, count_basis_enumeration
from frobcx.poincare import build_table
from frobcx.transfer import (
    TransferSystem,
    _apply,
    _power_of_t,
    build_system,
    char_poly,
    complexity_sequence,
    complexity_term,
    iter_counts,
    state,
    sweep,
    term_and_sum,
)
from strategies import digit_count

# e = 0, 1 and 2^k - 1, 2^k, 2^k + 1: the bit patterns where powering can slip
POWERING_EDGES = sorted({0, 1} | {2**k + s for k in range(1, 7) for s in (-1, 0, 1)})


def test_frozen_system_p2_d4():
    sys24 = build_system(2, 4)
    assert sys24.matrix == ((6, 4), (1, 4))
    assert sys24.x0 == (4, 0)
    assert sys24.weights == (1, 0)
    assert sys24.dim == 2


def test_frozen_system_p3_d3():
    sys33 = build_system(3, 3)
    # 1x1 case: the single entry is the exact growth rate p(p+1)/2
    assert sys33.matrix == ((6,),)
    assert sys33.x0 == (3,)
    assert sys33.weights == (3,)
    # weights . x0 = 9 = the level-2 count in three variables over F_3


def test_build_system_rejects_small_d():
    with pytest.raises(ValueError):
        build_system(2, 2)


def test_transfer_system_validates_shapes():
    s = build_system(2, 5)
    for args, message in (
        ((2, 2, (), (), ()), "transfer systems exist for d >= 3 only"),
        ((2, 5, s.matrix[:2], s.x0, s.weights), "matrix must be (d-2) x (d-2)"),
        ((2, 5, tuple(row[:2] for row in s.matrix), s.x0, s.weights),
         "matrix must be (d-2) x (d-2)"),
        ((2, 5, s.matrix, s.x0[:2], s.weights), "x0 and weights must have length d-2"),
        ((2, 5, s.matrix, s.x0, (*s.weights, 0)), "x0 and weights must have length d-2"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TransferSystem(*args)


def test_transfer_system_refuses_a_non_integral_d():
    # d = 4.0 is not taken as 4, which left dim = 2.0 for the count recursion
    # to trip over, and d = 3.5 is refused for its type, not its matrix's shape
    for d, n in ((4.0, 2), (3.5, 1)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            TransferSystem(2, d, ((1,) * n,) * n, (1,) * n, (1,) * n)


def test_build_system_entries_by_inclusion_exclusion():
    # every entry of U, x0 and the weights is one M_d(p*i - j + p - 1),
    # i, j = 0..d-2: U takes i, j >= 1, x0 j = 0 and the weights i = 0
    for p in (2, 3, 5, 7, 11, 13, 101):
        for d in range(3, 13):
            n, system = d - 2, build_system(p, d)
            full = [[digit_count(p, d, p * i - j + p - 1) for j in range(n + 1)]
                    for i in range(n + 1)]
            assert system.matrix == tuple(tuple(row[1:]) for row in full[1:]), (p, d)
            assert system.x0 == tuple(row[0] for row in full[1:]), (p, d)
            assert system.weights == tuple(full[0][1:]), (p, d)


def _eulerian(n, m):
    # A(n, m), the permutations of n with m ascents: A(4, 0) = 1, A(4, 1) = 11
    return sum((-1) ** k * comb(n + 1, k) * (m + 1 - k) ** n for k in range(m + 1))


def _divided_differences(xs, ys):
    # the Newton form's coefficients of the interpolant; the last is x^(len - 1)'s
    cs = [Fraction(y) for y in ys]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            cs[i] = (cs[i] - cs[i - 1]) / (xs[i] - xs[i - k])
    return cs


def _newton_value(xs, cs, x):
    value = Fraction(0)
    for c, xk in zip(reversed(cs), reversed(xs)):
        value = value * (x - xk) + c
    return value


def test_build_system_entries_are_polynomials_in_p():
    # for p >= d - 1 each U[i][j] is a polynomial in p of degree d - 1, with
    # leading coefficient A(d - 1, i) / (d - 1)!, rows from 1, in every
    # column: the Irwin-Hall density at i + 1.  Those sum over i to
    # alpha_d = 1 - 1/(d - 1)!, the large-p limit of rho / p^(d - 1).  The
    # interpolant through d primes is checked at up to three more <= 53
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    checks = 0
    for d in range(3, 10):
        n, usable = d - 2, [q for q in primes if q >= d - 1]
        fit, further = usable[:d], usable[d:d + 3]
        systems = {q: build_system(q, d).matrix for q in fit + further}
        for j in range(n):
            leading = []
            for i in range(n):
                cs = _divided_differences(fit, [systems[q][i][j] for q in fit])
                for q in further:
                    assert _newton_value(fit, cs, q) == systems[q][i][j], (d, i, j, q)
                    checks += 1
                assert cs[-1] == Fraction(_eulerian(d - 1, i + 1), factorial(d - 1)), (d, i, j)
                leading.append(cs[-1])
            assert sum(leading) == 1 - Fraction(1, factorial(d - 1)), (d, j)
    assert checks == 420


def test_state_iterates_matrix_powers():
    sys24 = build_system(2, 4)
    assert state(sys24, 0) == (4, 0)
    assert state(sys24, 1) == (24, 4)
    assert state(sys24, 2) == (160, 40)
    with pytest.raises(ValueError):
        state(sys24, -1)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=3, max_value=9),
    st.one_of(st.sampled_from(POWERING_EDGES), st.integers(min_value=0, max_value=70)),
)
@example(7, 9, 70)
def test_state_equals_stepwise_products(p, d, e):
    system = build_system(p, d)
    steps = [list(system.x0)]
    for _ in range(70):
        steps.append(_apply(system.matrix, steps[-1]))
    for n in {e, *POWERING_EDGES}:
        assert state(system, n) == tuple(steps[n])


def _count_mod_by_steps(p, d, e, q):
    """c_{d,e} mod q for e >= 2, from the recursion written out afresh."""
    md = [1]  # coefficients of (1 + t + ... + t^(p-1))^d
    for _ in range(d):
        md = [sum(md[k - i] for i in range(p) if 0 <= k - i < len(md))
              for k in range(len(md) + p - 1)]

    def coeff(k):
        return md[k] % q if 0 <= k < len(md) else 0

    n = range(1, d - 1)
    matrix = [[coeff(p * i - j + p - 1) for j in n] for i in n]
    x = [coeff(p * i + p - 1) for i in n]
    for _ in range(e - 2):
        x = [sum(u * v for u, v in zip(row, x)) % q for row in matrix]
    return sum(coeff(p - 1 - i) * v for i, v in zip(n, x)) % q


def test_far_terms_match_a_modular_recursion():
    q = 2**61 - 1  # a Mersenne prime
    for p, d, e in [(2, 6, 20000), (2, 5, 17000)]:
        assert complexity_term(p, d, e) % q == _count_mod_by_steps(p, d, e, q)
    for p, d, e in [(2, 4, 300), (2, 6, 257), (3, 5, 129), (7, 9, 64)]:
        assert complexity_term(p, d, e) == sweep(p, d, 300)[e]


def _by_powering(system, e):
    return sum(w * v for w, v in zip(system.weights, state(system, e - 2)))


def crossover(d):
    # the crossover rule: chi pays from e = n^2/4 + n + 8 on, n = d - 2
    n = d - 2
    return n * n // 4 + n + 8


def test_far_terms_on_both_sides_of_the_crossover():
    # one term is Fiduccia's from the crossover on and a sweep's below it
    cases = [(p, d, e) for p, d in [(2, 3), (2, 4), (3, 5), (2, 6), (7, 9), (5, 14), (2, 30)]
             for e in (2, 3, d, 64, 65, 66, 67)]
    cases += [(2, 3, 4096), (2, 4, 4097), (3, 5, 4096), (2, 6, 1001), (7, 9, 1001)]
    for p, d, e in cases:
        assert complexity_term(p, d, e) == _by_powering(build_system(p, d), e), (p, d, e)
    # e = T - 1, T, T + 1 at the crossover T: one powering, then matrix steps
    for d in range(3, 31):
        p, t = (2, 3)[d % 2], crossover(d)
        system = build_system(p, d)
        x = state(system, t - 3)
        for e in (t - 1, t, t + 1):
            assert complexity_term(p, d, e) == sum(w * v for w, v in zip(system.weights, x)), (p, d, e)
            x = _apply(system.matrix, x)


def _power_by_steps(j, recurrence):
    # t^j mod t^n - sum b_k t^k, one degree at a time: multiply by t, then
    # put the top coefficient back through t^n = sum b_k t^k
    r = [1] + [0] * (len(recurrence) - 1)
    for _ in range(j):
        top = r[-1]
        r = [a + b * top for a, b in zip([0] + r[:-1], recurrence)]
    return r


@settings(max_examples=200, deadline=None)
@given(st.lists(st.just(0) | st.integers(min_value=-50, max_value=50), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=300))
@example([0], 3)  # t^1 = 0: every power from t on vanishes
@example([-1, 0, 0, 0, 0, 0, 0, 1], 300)
@example([3, -2], 255)  # all bits set
def test_power_of_t_equals_steps_of_one_degree(recurrence, j):
    r = _power_of_t(j, recurrence)
    assert r + [0] * (len(recurrence) - len(r)) == _power_by_steps(j, recurrence)


@pytest.mark.parametrize("d", range(3, 11))
def test_far_terms_equal_the_sweep_for_both_parities(d):
    # from the crossover T on, Fiduccia's method with its last squaring as a
    # Hankel form, in c_2..c_{2n+1} for one term and in k_1..k_{2n+3} for a
    # term and its partial sum: e - 2 even and odd, n = 1..8
    t = crossover(d)
    for p in (2, 3, 5):
        c = sweep(p, d, 1001)
        for e in (t, t + 1, t + 2, t + 3, 1000, 1001):
            assert complexity_term(p, d, e) == c[e], (p, d, e)
            assert term_and_sum(p, d, e) == (c[e], sum(c[:e + 1])), (p, d, e)


# emax up to 60 puts d <= 14 on both sides of the sweep's crossover, emax
# = n^2/4 + n + 8 with n = d - 2; the faulted system is the one ``verify
# --inject-fault`` sweeps, and must keep the counts of its own matrix
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=3, max_value=14),
    st.integers(min_value=0, max_value=60),
    st.booleans(),
)
@example(2, 14, 55, False)
@example(2, 14, 56, True)
@example(7, 3, 9, False)
@example(7, 3, 10, True)
def test_sweep_equals_the_matrix_powers(p, d, emax, faulted):
    system = build_system(p, d)
    if faulted:
        system = cli._faulted(system)
    expected = [0, comb(d + p - 2, p - 1)] + [_by_powering(system, e) for e in range(2, emax + 1)]
    assert list(iter_counts(p, d, emax, system)) == expected[:emax + 1]
    with localcontext(cli.EXACT):
        decimals = list(iter_counts(p, d, emax, system, number=Decimal))
    assert [str(c) for c in decimals] == [str(c) for c in expected[:emax + 1]]
    if faulted and emax >= 3:
        assert decimals[3] > complexity_term(p, d, 3)


def chi_paths(p, d, emax, levels):
    # c_e for e in levels by the three count paths that run chi from the
    # crossover on: the count generator on ints and on Decimals (as strings),
    # and complexity_term
    ints = list(iter_counts(p, d, emax))
    with localcontext(cli.EXACT):
        decimals = [str(c) for c in iter_counts(p, d, emax, number=Decimal)]
    return ([ints[e] for e in levels], [decimals[e] for e in levels],
            [complexity_term(p, d, e) for e in levels])


# engines that share no matrix with the transfer recursion check its chi
# paths: the d = 3 closed form past the crossover e = 9, and carry vectors
# at d = 4 from its crossover e = 11 (4,096 of them at e = 13)
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_chi_paths_equal_the_d3_closed_form(p):
    levels = range(2, 301)
    expected = [closed_form_d3(p, e) for e in levels]
    ints, decimals, terms = chi_paths(p, 3, 300, levels)
    assert ints == terms == expected
    assert decimals == [str(c) for c in expected]


@pytest.mark.parametrize("p", [2, 3])
def test_chi_paths_equal_the_carry_vector_counts(p):
    levels = range(11, 14)
    expected = [count_basis_carryvectors(p, 4, e) for e in levels]
    ints, decimals, terms = chi_paths(p, 4, 13, levels)
    assert ints == terms == expected
    assert decimals == [str(c) for c in expected]


@st.composite
def sum_cells(draw):
    # (p, d, emax), emax often at the crossover's T - 1, T or T + 1
    p, d = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(min_value=1, max_value=14))
    if d >= 3 and draw(st.booleans()):
        return p, d, crossover(d) + draw(st.sampled_from([-1, 0, 1]))
    return p, d, draw(st.integers(min_value=0, max_value=400))


@settings(max_examples=60, deadline=None)
@given(sum_cells())
@example((2, 1, 0))
@example((3, 2, 400))
@example((2, 3, 8))
@example((2, 3, 9))
@example((2, 3, 10))
@example((5, 14, 55))
@example((5, 14, 56))
@example((5, 14, 57))
@example((7, 14, 400))
def test_term_and_sum_equal_the_summed_sweep(cell):
    # the last row of a sequence table, which no sweep gives before row 0
    p, d, emax = cell
    c = sweep(p, d, emax)
    assert term_and_sum(p, d, emax) == (c[-1], sum(c))


def test_complexity_term_frozen_values():
    # independently brute-forced before implementation
    expected = {
        (2, 4, 2): 4, (2, 4, 3): 24, (2, 4, 4): 160,
        (2, 4, 5): 1120, (2, 4, 6): 8000,
        (2, 6, 6): 5937792, (3, 5, 4): 1145826, (5, 4, 3): 171500,
    }
    for (p, d, e), c in expected.items():
        assert complexity_term(p, d, e) == c


def test_complexity_term_degenerate_levels():
    for p, d in [(2, 1), (2, 2), (3, 2), (5, 1), (3, 4)]:
        assert complexity_term(p, d, 0) == 0
    # level 1 is the closed binomial count for every d
    assert complexity_term(2, 4, 1) == 4
    assert complexity_term(3, 4, 1) == 10
    assert complexity_term(5, 3, 1) == 15
    # below three variables nothing survives past level 1, and no level
    # past 2 is swept to find that out
    for e in (2, 3, 4, 10**18):
        assert complexity_term(2, 2, e) == 0
        assert complexity_term(3, 1, e) == 0


TERM_REFUSALS = [
    (4, 5, 3, "4 is not prime (divisible by 2)"),
    (2, 0, 3, "d must be >= 1"),
    (2, 5, -1, "e must be >= 0"),
    (4, 5, 100, "4 is not prime (divisible by 2)"),
    (4, 2, 10**18, "4 is not prime (divisible by 2)"),
]


@pytest.mark.parametrize("p, d, e, message", TERM_REFUSALS)
def test_complexity_term_refusals(p, d, e, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        complexity_term(p, d, e)


@pytest.mark.parametrize("p, d, e, message", TERM_REFUSALS)
def test_term_and_sum_refusals(p, d, e, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        term_and_sum(p, d, e)


# a fractional level, refused before the d <= 2 shortcut can answer it
TERM_TYPE_REFUSALS = [(2, 2, 2.5), (3, 1, 2.5), (2, 2, 3.0)]


@pytest.mark.parametrize("p, d, e", TERM_TYPE_REFUSALS)
def test_far_terms_refuse_a_fractional_level(p, d, e):
    for count in (complexity_term, term_and_sum):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            count(p, d, e)


def test_sequence_report_matches_terms():
    # the one field the benchmark's complexity_sequence hook reads
    assert complexity_sequence(2, 4, 6).c == (0, 4, 4, 24, 160, 1120, 8000)


def test_sequence_agrees_with_term_calls():
    for p, d, emax in [(2, 5, 7), (3, 4, 5), (5, 3, 4), (2, 2, 4), (3, 1, 3)]:
        assert sweep(p, d, emax) == [complexity_term(p, d, e) for e in range(emax + 1)]


def test_sequence_runs_a_given_system():
    system = build_system(2, 4)
    assert list(iter_counts(2, 4, 8, system)) == sweep(2, 4, 8)
    bumped = TransferSystem(2, 4, ((7, 4), (1, 4)), system.x0, system.weights)
    c = list(iter_counts(2, 4, 4, bumped))
    assert c[:3] == [0, 4, 4] and c[3] == 28  # U x0 = (28, 4) weighs in at e=3
    with pytest.raises(ValueError):
        list(iter_counts(2, 5, 4, system))
    with pytest.raises(ValueError):
        list(iter_counts(3, 4, 4, system))


def test_count_generator_checks_its_arguments_when_called():
    system = build_system(2, 4)
    for args in [(4, 4, 3), (2, 0, 3), (2, 4, -1), (2, 5, 4, system), (3, 4, 4, system)]:
        with pytest.raises(ValueError):
            iter_counts(*args)  # before any count is taken
    floats = TransferSystem(2, 4, ((1.5, 0), (0, 1)), (1, 1), (1, 1))
    for args in [(2, 4, 3.0), (2, 4.0, 3), (2, 4, 4, floats)]:
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            iter_counts(*args)  # not after yielding 0, 4 and 4


def test_transfer_matches_enumeration_spot_checks():
    for p, d, e in [(2, 3, 5), (2, 5, 4), (3, 4, 3), (5, 3, 3), (2, 6, 3)]:
        assert complexity_term(p, d, e) == count_basis_enumeration(p, d, e)


@settings(max_examples=60)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=10),
)
def test_counts_nonnegative_and_sums_monotone(p, d, emax):
    c = sweep(p, d, emax)
    k = list(accumulate(c))
    assert c[0] == 0 and all(x >= 0 for x in c)
    assert all(b >= a for a, b in zip(k, k[1:]))


@settings(max_examples=40)
@given(st.sampled_from([2, 3, 5]), st.integers(min_value=3, max_value=6))
def test_census_states_stay_positive_in_first_slot(p, d):
    # the top-carry census can have zero tail slots but never an empty lead
    system = build_system(p, d)
    x = state(system, 0)
    for e in range(1, 6):
        x = state(system, e)
        assert x[0] > 0


def _derogatory(kind, n, data):
    # an n x n matrix whose minimal polynomial has degree < n, with its
    # characteristic polynomial where a closed form gives it (low
    # coefficient first), else None
    entries = st.integers(min_value=-9, max_value=9)
    if kind == "scalar":
        c = data.draw(entries)
        return [[c * (i == j) for j in range(n)] for i in range(n)], tuple(
            comb(n, k) * (-c) ** (n - k) for k in range(n + 1))
    if kind == "zero":
        return [[0] * n for _ in range(n)], (0,) * n + (1,)
    if kind == "nilpotent":  # strictly upper triangular with a zero first row: rank <= n - 2
        rows = [[data.draw(entries) if 0 < i < j else 0 for j in range(n)] for i in range(n)]
        return rows, (0,) * n + (1,)
    if kind == "permutation":  # P v = v for v all ones
        image = data.draw(st.permutations(range(n)))
        return [[int(j == image[i]) for j in range(n)] for i in range(n)], None
    m = n // 2  # diag(A, A), with a zero row and column when n is odd
    a = [[data.draw(entries) for _ in range(m)] for _ in range(m)]
    rows = [[0] * n for _ in range(n)]
    for i in range(m):
        rows[i][:m] = rows[i + m][m:2 * m] = a[i]
    return rows, None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["scalar", "zero", "nilpotent", "permutation", "double"]),
       st.integers(min_value=12, max_value=18), st.data())
def test_char_poly_of_derogatory_matrices_falls_back_to_berkowitz(kind, n, data):
    # chi where the minimal polynomial is a proper factor of it, at n = 12..18
    rows, closed = _derogatory(kind, n, data)
    chi = char_poly(rows)
    assert len(chi) == n + 1 and chi[-1] == 1
    assert closed is None or chi == closed


def test_char_poly_of_a_nonderogatory_nilpotent_matrix():
    # the shift matrix has one Jordan block and chi = t^n
    n = 12
    shift = tuple(tuple(int(j == i + 1) for j in range(n)) for i in range(n))
    assert char_poly(shift) == (0,) * n + (1,)


def test_char_poly_returns_a_monic_tuple_of_ints_on_every_path():
    # transfer matrices at n = 6 and 16, and 2I at n = 12: chi = (x - 2)^12
    n = 12
    scalar = tuple(tuple(2 * (i == j) for j in range(n)) for i in range(n))
    for rows in (build_system(2, 8).matrix, build_system(2, 18).matrix, scalar):
        chi = char_poly(rows)
        assert type(chi) is tuple and {type(c) for c in chi} == {int}
        assert len(chi) == len(rows) + 1 and chi[-1] == 1
    assert char_poly(scalar) == tuple(comb(n, k) * (-2) ** (n - k) for k in range(n + 1))


def test_char_poly_of_powers_of_two_past_the_order_of_2():
    # the eigenvalues 1, 2, ..., 2^63: coefficients past any word size
    n = 64
    rows = tuple(tuple(2**i * (i == j) for j in range(n)) for i in range(n))
    chi = [1]  # prod (t - 2^i), low coefficient first
    for i in range(n):
        chi = [u - 2**i * v for u, v in zip([0, *chi], [*chi, 0])]
    assert char_poly(rows) == tuple(chi)


def _carries(p, d):
    # Holte's carries matrix: p^d times the chance that adding d base-p
    # digits to carry i leaves carry j, H[i][j] = sum_{r<p} M_d(pj + r - i)
    m = dict(enumerate(build_table(p, d))).get
    return [[sum(m(p * j + r - i, 0) for r in range(p)) for j in range(d)] for i in range(d)]


def _carries_chi(p, d):
    # prod_{k<d} (x - p^(d-k)), low coefficient first: Holte's spectrum of H
    chi = [1]
    for k in range(d):
        chi = [u - p ** (d - k) * v for u, v in zip([0, *chi], [*chi, 0])]
    return tuple(chi)


def test_eulerian_numbers_are_a_left_eigenvector_of_the_carries_matrix():
    # Holte's stationary carry distribution: (A(d, j))_j H = p^d (A(d, j))_j,
    # a check of build_table at large d
    for p, d in ((2, 4), (3, 6), (5, 7), (2, 12), (2, 40), (3, 30), (2, 60)):
        rows, a = _carries(p, d), [_eulerian(d, j) for j in range(d)]
        assert [sum(map(mul, a, col)) for col in zip(*rows)] == [p**d * v for v in a], (p, d)


def _conjugated_carries(p, d):
    # S^-1 H S, S = I + E_01 (column 1 += column 0, then row 0 -= row 1): a
    # signed matrix, no longer centrosymmetric, with H's chi
    rows = _carries(p, d)
    for row in rows:
        row[1] += row[0]
    rows[0] = [a - b for a, b in zip(rows[0], rows[1])]
    return rows


def test_char_poly_of_the_carries_matrix_has_its_closed_form():
    # an exact reference at sizes no other test reaches; CI runs (5, 60) and (2, 100)
    for p, d in ((2, 4), (2, 10), (3, 7), (5, 12), (2, 40)):
        assert char_poly(_conjugated_carries(p, d)) == _carries_chi(p, d), (p, d)


def test_berkowitz_chi_of_the_carries_matrix_has_every_power_of_p_as_a_root():
    # H itself, every row summing to p^d
    for p, d in ((2, 10), (3, 14), (2, 40)):
        rows = tuple(map(tuple, _carries(p, d)))
        assert {sum(row) for row in rows} == {p**d}
        chi = char_poly(rows)
        assert len(chi) - 1 == d
        for k in range(d):
            assert sum(c * p ** ((d - k) * i) for i, c in enumerate(chi)) == 0, (p, d, k)
