"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a single
``ACCEPTANCE PASS/FAIL criterion N: ...`` line (visible with ``pytest -s``).
Grids, tolerances, and runtime budgets are stated inline; frozen values
were produced by an independent brute-force counter before this package
was written.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

import mpmath

from frobcx.basep import Prime
from frobcx.cli import main, render_json
from frobcx.closedform import closed_form_d3, lower_bound
from frobcx.enumeration import (
    composition_count,
    count_basis_carryvectors,
    count_basis_enumeration,
)
from frobcx.spectral import char_poly, frobenius_complexity, perron_interval
from frobcx.transfer import build_system, complexity_term, state, sweep
from frobcx.twistedop import (
    QuotientRing,
    TwistedOperator,
    bracket,
    compose,
    factorization_check,
    min_kill_degree,
    random_operator,
)

mpmath.mp.dps = 50

# (p, d-range, e-range): the main cross-engine grid
GRID = (
    (2, (3, 4, 5, 6), (2, 3, 4, 5, 6)),
    (3, (3, 4, 5), (2, 3, 4)),
    (5, (3, 4), (2, 3)),
)


def _report(n, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE FAIL criterion {n}: {desc}")
        raise
    print(f"ACCEPTANCE PASS criterion {n}: {desc}")


def _grid_points():
    for p, ds, es in GRID:
        for d in ds:
            for e in es:
                yield p, d, e


def test_criterion_1_engine_agreement():
    def check():
        start = time.perf_counter()
        for p, ds, es in GRID:
            for d in ds:
                seq = sweep(p, d, max(es))
                for e in es:
                    by_enum = count_basis_enumeration(p, d, e)
                    by_carry = count_basis_carryvectors(p, d, e)
                    assert by_enum == by_carry == seq[e], (p, d, e)
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"grid took {elapsed:.1f}s, budget 60s"

    _report(1, "three counting engines agree across the full grid (<60s)", check)


def test_criterion_2_d3_closed_form():
    def check():
        for p in (2, 3, 5, 7):
            for e in range(2, 9):
                assert complexity_term(p, 3, e) == closed_form_d3(p, e), (p, e)

    _report(2, "three-variable counts equal the closed product formula", check)


def test_criterion_3_d3_spectral():
    def check():
        tol = Fraction(1, 10**9)
        for p in (2, 3, 5, 7, 11):
            system = build_system(p, 3)
            est = perron_interval(system.matrix, tol)
            rate = p * (p + 1) // 2
            assert (est.lo, est.hi) == (rate, rate), p
            box = frobenius_complexity(p, 3, tol)
            assert box.width <= tol
            target = 1 + mpmath.log(p + 1, p) - mpmath.log(2, p)
            assert mpmath.mpf(box.lo.numerator) / box.lo.denominator <= target
            assert mpmath.mpf(box.hi.numerator) / box.hi.denominator >= target

    _report(3, "three-variable growth rate is exact; log matches closed form", check)


def _at_most_sqrt5(x: Fraction) -> bool:
    return x <= 0 or x * x <= 5


def _at_least_sqrt5(x: Fraction) -> bool:
    return x > 0 and x * x >= 5


def test_criterion_4_char2_four_variables():
    def check():
        start = time.perf_counter()
        tol = Fraction(1, 10**9)
        system = build_system(2, 4)
        assert system.matrix == ((6, 4), (1, 4))
        assert system.x0 == (4, 0)
        assert char_poly(system.matrix) == (20, -10, 1)

        est = perron_interval(system.matrix, tol)
        # radius within 1e-9 of 5 + sqrt(5), compared exactly
        assert _at_most_sqrt5(est.lo - 5) and _at_least_sqrt5(est.hi - 5)
        assert _at_least_sqrt5(est.lo - 5 + tol)
        assert _at_most_sqrt5(est.hi - 5 - tol)

        # counts follow the order-2 recursion c_{e+1} = 10 c_e - 20 c_{e-1}
        seq = sweep(2, 4, 12)
        a, b = seq[2], seq[3]
        assert (a, b) == (4, 24)
        for e in range(4, 13):
            a, b = b, 10 * b - 20 * a
            assert seq[e] == b, e
        states = [state(system, n) for n in range(11)]
        assert all(states[n][0] == seq[n + 2] for n in range(11))

        box = frobenius_complexity(2, 4, tol)
        assert box.width <= tol
        target = mpmath.log(5 + mpmath.sqrt(5), 2)
        assert mpmath.mpf(box.lo.numerator) / box.lo.denominator <= target
        assert mpmath.mpf(box.hi.numerator) / box.hi.denominator >= target

        elapsed = time.perf_counter() - start
        assert elapsed < 1, f"took {elapsed:.2f}s, budget 1s"

    _report(4, "char-2 four-variable system: matrix, radius 5+sqrt(5), recursion (<1s)", check)


def test_criterion_5_upper_bounds():
    def check():
        for p, d, e in _grid_points():
            c = complexity_term(p, d, e)
            assert c <= comb(p**e - 2 + d, d - 1), (p, d, e)
            assert comb(p**e - 2 + d, d - 1) == composition_count(p**e - 1, d)
        seen = set()
        for p, ds, _ in GRID:
            for d in ds:
                if (p, d) in seen:
                    continue
                seen.add((p, d))
                box = frobenius_complexity(p, d, Fraction(1, 10**6))
                assert box.hi <= d - 1, (p, d)

    _report(5, "composition upper bound on counts; complexity at most d-1", check)


def test_criterion_6_level_one_small_d_lower_bound():
    def check():
        for p in (2, 3, 5):
            for d in range(1, 7):
                expected = comb(d + p - 2, p - 1)
                assert complexity_term(p, d, 1) == expected
                assert count_basis_enumeration(p, d, 1) == expected
            for d in (1, 2):
                for e in (2, 3, 4):
                    assert complexity_term(p, d, e) == 0
                    assert count_basis_enumeration(p, d, e) == 0
        for p, d, e in _grid_points():
            c = complexity_term(p, d, e)
            lb = lower_bound(p, d, e)
            assert lb <= c, (p, d, e)
            if d == 3:
                assert lb == c, (p, e)

    _report(6, "level-1 binomial rule, small-d vanishing, structured lower bound", check)


def test_criterion_7_ratio_convergence():
    def check():
        start = time.perf_counter()
        for p in (2, 3):
            for d in (3, 4, 5):
                seq = sweep(p, d, 21)
                ratio = Fraction(seq[21], seq[20])
                est = perron_interval(build_system(p, d).matrix, Fraction(1, 10**9))
                assert est.lo * Fraction(99, 100) <= ratio <= est.hi * Fraction(101, 100), (p, d)
        elapsed = time.perf_counter() - start
        assert elapsed < 5, f"took {elapsed:.2f}s, budget 5s"

    _report(7, "count ratios land within 1% of the certified growth rate (<5s)", check)


def test_criterion_8_twisted_operator_laws():
    def check():
        for p, n, r in ((2, 4, 2), (3, 3, 2), (2, 2, 3)):
            ring = QuotientRing(Prime(p), n)
            e0 = min_kill_degree(ring)
            rng = random.Random(10_000 * p + 100 * n + r)
            for _ in range(1000):
                da, db, dc = (rng.randrange(0, 4) for _ in range(3))
                a = random_operator(ring, r, da, rng)
                b = random_operator(ring, r, db, rng)
                c = random_operator(ring, r, dc, rng)
                ab = compose(a, b)
                assert ab.degree == da + db
                assert compose(ab, c) == compose(a, compose(b, c))
                q = rng.randrange(0, 3)
                assert bracket(
                    compose(TwistedOperator(a.rows, 0), TwistedOperator(b.rows, 0)).rows, q
                ) == compose(
                    TwistedOperator(bracket(a.rows, q), 0),
                    TwistedOperator(bracket(b.rows, q), 0),
                ).rows
                e = e0 + rng.randrange(0, 4)
                assert factorization_check(a.rows, e, e0)

    _report(8, "twisted operator laws hold on 1000 random instances per config", check)


def test_criterion_9_cli_contract(capsys):
    def check():
        code = main(["sequence", "--p", "2", "--d", "4", "--emax", "6",
                     "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert render_json(payload) == out.rstrip("\n")
        assert payload["c"][6] == "8000" and payload["k"][6] == "9312"

        code = main(["complexity", "--p", "2", "--d", "4", "--tol", "1e-9"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert render_json(payload) == out.rstrip("\n")
        assert float(payload["cxf_lo"]) <= 2.8552059612 <= float(payload["cxf_hi"])

        assert main(["sequence", "--p", "9", "--d", "3", "--emax", "2"]) == 1
        assert main(["sequence", "--p", "2", "--d", "6", "--emax", "8",
                     "--engine", "enumerate", "--max-compositions", "1000"]) == 2
        assert main(["verify", "--quiet"]) == 0
        assert main(["verify", "--quiet", "--inject-fault"]) == 3
        capsys.readouterr()

    _report(9, "CLI: byte-identical json round-trip; exit codes 0/1/2/3", check)
