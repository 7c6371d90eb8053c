import re
from decimal import Decimal, localcontext
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from frobcx import cli
from frobcx.closedform import closed_form_d3
from frobcx.enumeration import count_basis_carryvectors, count_basis_enumeration
from frobcx.transfer import (
    ComplexityReport,
    TransferSystem,
    _apply,
    build_system,
    complexity_sequence,
    complexity_term,
    iter_counts,
    state,
    sweep,
    term_and_sum,
)

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
    assert sweep(p, d, emax, system) == expected[:emax + 1]
    with localcontext(cli.EXACT):
        decimals = sweep(p, d, emax, system, number=Decimal)
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


def test_sequence_report_matches_terms():
    report = complexity_sequence(2, 4, 6)
    assert report.engine == "transfer"
    assert report.c == (0, 4, 4, 24, 160, 1120, 8000)
    assert report.k == (0, 4, 8, 32, 192, 1312, 9312)
    assert report.emax == 6


def test_sequence_agrees_with_term_calls():
    for p, d, emax in [(2, 5, 7), (3, 4, 5), (5, 3, 4), (2, 2, 4), (3, 1, 3)]:
        report = complexity_sequence(p, d, emax)
        assert report.c == tuple(complexity_term(p, d, e) for e in range(emax + 1))


def test_sequence_runs_a_given_system():
    system = build_system(2, 4)
    assert sweep(2, 4, 8, system) == list(complexity_sequence(2, 4, 8).c)
    bumped = TransferSystem(2, 4, ((7, 4), (1, 4)), system.x0, system.weights)
    c = sweep(2, 4, 4, bumped)
    assert c[:3] == [0, 4, 4] and c[3] == 28  # U x0 = (28, 4) weighs in at e=3
    with pytest.raises(ValueError):
        sweep(2, 5, 4, system)
    with pytest.raises(ValueError):
        sweep(3, 4, 4, system)


def test_count_generator_checks_its_arguments_when_called():
    system = build_system(2, 4)
    for args in [(4, 4, 3), (2, 0, 3), (2, 4, -1), (2, 5, 4, system), (3, 4, 4, system)]:
        with pytest.raises(ValueError):
            iter_counts(*args)  # before any count is taken


def test_report_validation():
    assert ComplexityReport(2, 4, "transfer", (0, 4, 4)).k == (0, 4, 8)
    with pytest.raises(ValueError):
        ComplexityReport(2, 4, "transfer", (1, 2))  # c[0] != 0
    with pytest.raises(ValueError):
        ComplexityReport(2, 4, "transfer", (0, 2, -1))  # negative count


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
    report = complexity_sequence(p, d, emax)
    assert all(c >= 0 for c in report.c)
    assert all(b >= a for a, b in zip(report.k, report.k[1:]))


@settings(max_examples=40)
@given(st.sampled_from([2, 3, 5]), st.integers(min_value=3, max_value=6))
def test_census_states_stay_positive_in_first_slot(p, d):
    # the top-carry census can have zero tail slots but never an empty lead
    system = build_system(p, d)
    x = state(system, 0)
    for e in range(1, 6):
        x = state(system, e)
        assert x[0] > 0
