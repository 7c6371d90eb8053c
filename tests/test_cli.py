import contextlib
import decimal
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from itertools import accumulate
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from frobcx import cli, spectral, twistedop
from frobcx.basep import Prime
from frobcx.cli import (
    AUTO_ENUMERATE_LIMIT, EXACT, ENGINE_TERMS, _CHUNK, _resolve_engine, _sequence_counts,
    _sequence_lines, _write_lines, build_parser, decimal_places, decimal_str, main,
    render_json,
)
from frobcx.enumeration import composition_count, count_basis_carryvectors
from frobcx.errors import GuardExceeded, NotCertified, NotConverged, Stopped
from frobcx.transfer import build_system, complexity_term, iter_counts, sweep
from fractions import Fraction
from strategies import Unpowered


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mdpoly_json(capsys):
    code, out, _ = run(capsys, "mdpoly", "--p", "2", "--d", "4")
    assert code == 0
    assert json.loads(out) == [1, 4, 6, 4, 1]


def test_mdpoly_table(capsys):
    code, out, _ = run(capsys, "mdpoly", "--p", "3", "--d", "2", "--format", "table")
    assert code == 0
    assert out.splitlines()[1:] == ["  0 1", "  1 2", "  2 3", "  3 2", "  4 1"]


def test_sequence_json_round_trip_is_byte_identical(capsys):
    code, out, _ = run(
        capsys, "sequence", "--p", "2", "--d", "4", "--emax", "6",
        "--engine", "transfer", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert render_json(payload) == out.rstrip("\n")
    assert payload == {
        "p": 2,
        "d": 4,
        "engine": "transfer",
        "c": ["0", "4", "4", "24", "160", "1120", "8000"],
        "k": ["0", "4", "8", "32", "192", "1312", "9312"],
    }


def test_sequence_csv(capsys):
    code, out, _ = run(
        capsys, "sequence", "--p", "3", "--d", "3", "--emax", "3", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["e,c_e,k_e", "0,0,0", "1,6,6", "2,9,15", "3,54,69"]


@pytest.mark.parametrize("p, d, emax", [(1009, 2, 3), (3, 3, 3)])
def test_sequence_table_rows_line_up_with_the_header(capsys, p, d, emax):
    # (1009, 2, 3): c_1 = 1009 is the widest count, and c_emax = 0
    code, out, _ = run(capsys, "sequence", "--p", str(p), "--d", str(d),
                       "--emax", str(emax), "--format", "table")
    assert code == 0
    header, *rows = out.splitlines()[1:]

    def column_ends(line):
        return [m.end() for m in re.finditer(r"\S+", line)]

    assert len(rows) == emax + 1
    assert all(column_ends(row) == column_ends(header) for row in rows)


def test_sequence_engines_agree(capsys):
    results = {}
    for engine in ("enumerate", "carry", "transfer", "closed"):
        code, out, _ = run(
            capsys, "sequence", "--p", "2", "--d", "3", "--emax", "5",
            "--engine", engine, "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["engine"] == engine
        results[engine] = (tuple(payload["c"]), tuple(payload["k"]))
    assert len(set(results.values())) == 1


def test_sequence_auto_picks_enumerate_when_cheap(capsys):
    code, out, _ = run(
        capsys, "sequence", "--p", "2", "--d", "3", "--emax", "4", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["engine"] == "enumerate"
    code, out, _ = run(
        capsys, "sequence", "--p", "2", "--d", "4", "--emax", "30", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["engine"] == "transfer"


def test_auto_engine_decides_a_huge_emax_without_its_power():
    # 2^(10^20) would never be formed; at least p^emax compositions for d >= 2
    assert _resolve_engine("auto", Prime(2), 4, 10**20, 10**8) == "transfer"
    assert _resolve_engine("auto", Prime(1009), 2, 10**20, 10**8) == "transfer"


def test_one_variable_sequence_forms_no_power_of_p(capsys, monkeypatch):
    # auto enumerates d = 1, one composition per level; a power of p at each
    # level took 111 s to reach e = 3 * 10^5
    monkeypatch.setattr(cli, "Prime", Unpowered)
    code, out, _ = run(capsys, "sequence", "--p", "2", "--d", "1", "--emax", "300000",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:3] == ["0,0,0", "1,1,1"]
    assert out.splitlines()[-1] == "300000,0,1"


def test_auto_engine_choice_equals_the_composition_count_rule():
    for p in (2, 3, 5, 7, 1009):
        for d in range(1, 9):
            for emax in range(0, 26):
                for guard in (0, 1, 3, 4, 999, 10**4, AUTO_ENUMERATE_LIMIT, 10**8):
                    limit = min(AUTO_ENUMERATE_LIMIT, guard)
                    total = composition_count(p**emax - 1, d) if emax >= 1 else 0
                    expected = "enumerate" if total <= limit else "transfer"
                    got = _resolve_engine("auto", Prime(p), d, emax, guard)
                    assert got == expected, (p, d, emax, guard)


def test_sequence_enumerates_a_deep_cell(capsys):
    # 99,491,141 compositions at e = 2, just under the default guard
    code, out, _ = run(
        capsys, "sequence", "--p", "2", "--d", "841", "--emax", "2",
        "--engine", "enumerate", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["c"] == ["0", "841", "98783860"]


def test_complexity_json_round_trip(capsys):
    code, out, _ = run(capsys, "complexity", "--p", "2", "--d", "4", "--tol", "1e-9")
    assert code == 0
    payload = json.loads(out)
    assert render_json(payload) == out.rstrip("\n")
    assert set(payload) == {"rho_lo", "rho_hi", "cxf_lo", "cxf_hi"}
    assert float(payload["rho_lo"]) <= 7.2360679775 <= float(payload["rho_hi"])
    assert float(payload["cxf_lo"]) <= 2.8552059612 <= float(payload["cxf_hi"])


def test_complexity_answers_at_a_tight_tolerance(capsys):
    # tol 1e-4000 takes its base-2 logarithm at about 13,300 bits
    code, out, _ = run(capsys, "complexity", "--p", "2", "--d", "4", "--tol", "1e-4000")
    assert code == 0
    payload = json.loads(out)
    assert Fraction(payload["cxf_hi"]) - Fraction(payload["cxf_lo"]) <= Fraction(3, 10**4000)
    # the radius is 5 + sqrt(5)
    with mpmath.workdps(4020):
        target = mpmath.log(5 + mpmath.sqrt(5), 2)
        assert mpmath.mpf(payload["cxf_lo"]) <= target <= mpmath.mpf(payload["cxf_hi"])


def test_segre_reports_closed_form(capsys):
    code, out, _ = run(capsys, "segre", "--p", "2", "--d", "4", "--tol", "1e-6")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == "log_2(5 + sqrt(5))"
    code, out, _ = run(capsys, "segre", "--p", "3", "--d", "4", "--tol", "1e-6")
    assert json.loads(out)["closed_form"] is None


def test_usage_errors_exit_1(capsys, monkeypatch):
    assert run(capsys, "sequence", "--p", "4", "--d", "3", "--emax", "2")[0] == 1
    assert run(capsys, "sequence", "--p", "2", "--d", "0", "--emax", "2")[0] == 1
    assert run(capsys, "sequence", "--p", "2", "--d", "2", "--emax", "2",
               "--engine", "closed")[0] == 1
    assert run(capsys, "sequence", "--p", "2", "--d", "4", "--emax", "2",
               "--engine", "closed")[0] == 1
    assert run(capsys, "complexity", "--p", "2", "--d", "2")[0] == 1
    assert run(capsys, "complexity", "--p", "2", "--d", "4", "--tol", "0")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys)[0] == 1
    code, out, err = run(capsys, "sequence", "--p", "4", "--d", "3", "--emax", "2")
    assert code == 1 and err and not out  # error text goes to stderr
    # negative guards are refused, naming the flag or variable, on every engine
    for engine in ("auto", "enumerate", "carry", "transfer"):
        seq = ["sequence", "--p", "2", "--d", "4", "--emax", "3", "--engine", engine]
        for flag in ("--max-compositions", "--max-carryvectors"):
            code, out, err = run(capsys, *seq, flag, "-1")
            assert (code, out, err) == (1, "", f"error: {flag} must be >= 0, got -1\n")
        for name in ("FROBCX_MAX_COMPOSITIONS", "FROBCX_MAX_CARRYVECTORS"):
            monkeypatch.setenv(name, "-1")
            code, out, err = run(capsys, *seq)
            monkeypatch.delenv(name)
            assert (code, out, err) == (1, "", f"error: {name} must be >= 0, got -1\n")
    code, out, err = run(capsys, "verify", "--quiet", "--max-compositions", "-5")
    assert (code, out, err) == (1, "", "error: --max-compositions must be >= 0, got -5\n")
    monkeypatch.setenv("FROBCX_MAX_CARRYVECTORS", "-1")
    code, out, err = run(capsys, "verify", "--quiet")
    assert (code, out, err) == (1, "", "error: FROBCX_MAX_CARRYVECTORS must be >= 0, got -1\n")


def test_guard_exit_2(capsys):
    code, _, err = run(
        capsys, "sequence", "--p", "2", "--d", "6", "--emax", "8",
        "--engine", "enumerate", "--max-compositions", "1000",
    )
    assert code == 2
    assert "guard exceeded" in err


@pytest.mark.parametrize("engine, flag, counter, message", [
    ("carry", "--max-carryvectors", "count_basis_carryvectors",
     "carry-vector sum: 4096 iterations needed, guard is 1024"),
    ("enumerate", "--max-compositions", "count_basis_enumeration",
     "enumeration of compositions: 15504 iterations needed, guard is 1024"),
])
def test_sequence_checks_every_level_guard_before_it_counts_any(
        capsys, monkeypatch, engine, flag, counter, message):
    # level 7 trips carry's guard and level 4 enumerate's: the stop is the
    # engine's own, and it comes before levels 1..6 or 1..3 are counted
    counted, engine_count = [], getattr(cli, counter)

    def count(p, d, e, **guard):
        counted.append(e)
        return engine_count(p, d, e, **guard)

    monkeypatch.setattr(cli, counter, count)
    assert run(capsys, "sequence", "--p", "2", "--d", "6", "--emax", "8", "--engine", engine,
               flag, "1024") == (2, "", f"guard exceeded: {message}\n")
    assert counted == []


def test_guard_env_var(capsys, monkeypatch):
    monkeypatch.setenv("FROBCX_MAX_COMPOSITIONS", "10")
    code, _, err = run(
        capsys, "sequence", "--p", "2", "--d", "4", "--emax", "3",
        "--engine", "enumerate",
    )
    assert code == 2
    # explicit flag wins over the environment
    code, out, _ = run(
        capsys, "sequence", "--p", "2", "--d", "4", "--emax", "3",
        "--engine", "enumerate", "--max-compositions", "100000", "--format", "json",
    )
    assert code == 0
    monkeypatch.setenv("FROBCX_MAX_COMPOSITIONS", "not-a-number")
    code, _, err = run(
        capsys, "sequence", "--p", "2", "--d", "4", "--emax", "3",
        "--engine", "enumerate",
    )
    assert code == 1


def test_unconverged_enclosure_exits_2(capsys, monkeypatch):
    # with the Newton loop stopped at width 1, the (2, 6) radius enclosure
    # is wider than tol: refused on stderr, nothing printed
    newton = spectral._newton
    monkeypatch.setattr(spectral, "_newton", lambda coeffs, top, tn, td: newton(coeffs, top, 1, 1))
    for command in ("complexity", "segre"):
        assert run(capsys, command, "--p", "2", "--d", "6") == (2, "", (
            "not converged: the growth-rate enclosure stopped after 1 steps, "
            "wider than its tolerance\n"))


def test_uncertified_growth_rate_exits_2(capsys, monkeypatch):
    # with a zero seed census every count past c_1 is 0, and rho is no growth
    # rate: refused on stderr, naming the failed condition, nothing printed
    monkeypatch.setattr(spectral, "build_system",
                        lambda p, d: build_system(p, d)._replace(x0=(0,) * (d - 2)))
    for command in ("complexity", "segre"):
        assert run(capsys, command, "--p", "2", "--d", "6") == (2, "", (
            "not certified: the growth rate is the spectral radius only if "
            "x0 is nonnegative and nonzero\n"))


def test_every_stop_exits_2_with_its_label(capsys, monkeypatch):
    # one clause in main serves every Stopped subclass; a new one needs an
    # example here.  build_table is patched where mdpoly calls it: the cached
    # parser holds the command functions themselves
    stops = {GuardExceeded: ("guard exceeded", GuardExceeded("carry-vector sum", 9, 5)),
             NotConverged: ("not converged", NotConverged("stopped after 3 steps")),
             NotCertified: ("not certified", NotCertified("no growth rate"))}
    assert set(stops) == set(Stopped.__subclasses__())
    for cls, (label, exc) in stops.items():
        def stop(*args, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "build_table", stop)
        assert cls.label == label
        assert run(capsys, "mdpoly", "--p", "2", "--d", "3") == (2, "", f"{label}: {exc}\n")


def test_guard_falls_back_when_the_flag_is_left_out(capsys, monkeypatch):
    # flag, then environment variable, then default, on one shared parser
    seq = ("sequence", "--p", "2", "--d", "4", "--emax", "3", "--engine", "enumerate")
    monkeypatch.setenv("FROBCX_MAX_COMPOSITIONS", "50")
    assert run(capsys, *seq, "--max-compositions", "5") == (2, "", (
        "guard exceeded: enumeration of compositions: 20 iterations needed, guard is 5\n"))
    assert run(capsys, *seq) == (2, "", (
        "guard exceeded: enumeration of compositions: 120 iterations needed, guard is 50\n"))
    monkeypatch.delenv("FROBCX_MAX_COMPOSITIONS")
    code, out, err = run(capsys, *seq, "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "3,24,32"


def test_verify_passes(capsys):
    # verify's counts reach seven digits: it passes under a three-digit
    # context that traps rounding only because main runs it under EXACT
    default = decimal.getcontext()
    try:
        for context in (default, decimal.Context(prec=3, traps=[decimal.Rounded])):
            decimal.setcontext(context)
            assert run(capsys, "verify", "--quiet") == (
                0, "VERIFY PASS: 52 grid points, 74 bound checks\n", "")
    finally:
        decimal.setcontext(default)


def test_verify_catches_injected_fault(capsys):
    code, out, _ = run(capsys, "verify", "--inject-fault", "--quiet")
    assert code == 3
    assert out == "MISMATCH p=2 d=3 e=3: carry=3 closed=3 enumerate=3 transfer=4\n"


def test_verify_compares_the_transfer_counts_of_the_engine_table(capsys, monkeypatch):
    # the stream that sequence --engine transfer prints, bumped at one level
    transfer = ENGINE_TERMS["transfer"]
    monkeypatch.setitem(ENGINE_TERMS, "transfer", lambda p, d, emax, guard: (
        c + (d == 4 and e == 2) for e, c in enumerate(transfer(p, d, emax, guard))))
    code, out, _ = run(capsys, "verify", "--quiet")
    assert code == 3
    assert out == "MISMATCH p=2 d=4 e=2: carry=4 enumerate=4 transfer=5\n"


def test_verify_obeys_the_carry_guard_variable(capsys, monkeypatch):
    # verify has no --max-carryvectors flag; the variable sets its carry guard
    monkeypatch.setenv("FROBCX_MAX_CARRYVECTORS", "0")
    assert run(capsys, "verify", "--quiet") == (
        2, "", "guard exceeded: carry-vector sum: 1 iterations needed, guard is 0\n")


def test_verify_lists_only_engines_that_computed_the_level(capsys, monkeypatch):
    # every engine counts every level itself; closed applies to d = 3 only
    monkeypatch.setattr("frobcx.cli._VERIFY_GRID", ((2, range(2, 5), 2),))
    code, out, _ = run(capsys, "verify")
    assert code == 0
    listed = {tuple(line.split()[2:4]): line.split()[-1] for line in out.splitlines()[:-1]}
    assert listed == {
        ("d=2", "e=1"): "[carry/enumerate/transfer]",
        ("d=2", "e=2"): "[carry/enumerate/transfer]",
        ("d=3", "e=1"): "[carry/closed/enumerate/transfer]",
        ("d=3", "e=2"): "[carry/closed/enumerate/transfer]",
        ("d=4", "e=1"): "[carry/enumerate/transfer]",
        ("d=4", "e=2"): "[carry/enumerate/transfer]",
    }


def test_verify_checks_the_carry_engine_at_the_first_level(capsys, monkeypatch):
    monkeypatch.setattr("frobcx.cli.count_basis_carryvectors", lambda p, d, e, **guard: (
        count_basis_carryvectors(p, d, e, **guard) + (e == 1)))
    code, out, _ = run(capsys, "verify", "--quiet")
    assert code == 3
    assert out == "MISMATCH p=2 d=1 e=1: carry=2 enumerate=1 transfer=1\n"


def test_verify_reports_a_count_outside_its_bounds(capsys, monkeypatch):
    # the lower bound raised by one, then the composition count lowered by one
    lower = cli.lower_bound
    monkeypatch.setattr(cli, "lower_bound", lambda p, d, e: lower(p, d, e) + 1)
    assert run(capsys, "verify", "--quiet") == (
        3, "BOUND VIOLATION p=2 d=3 e=2: lower=2 c=1\n", "")
    monkeypatch.setattr(cli, "lower_bound", lower)
    upper = cli.composition_count
    monkeypatch.setattr(cli, "composition_count", lambda total, parts: upper(total, parts) - 1)
    assert run(capsys, "verify", "--quiet") == (
        3, "BOUND VIOLATION p=2 d=1 e=1: c=1 > 0\n", "")


@pytest.mark.parametrize("broken", [1, 2])
def test_twisted_demo_fails_when_a_factorization_does_not_hold(capsys, monkeypatch, broken):
    # compose's degree bumped from call `broken` on: at 1 the split (A, 6) ==
    # (A, 2) o (I, 4) fails, at 2 the identity chain (I, 2) o (I, 2), composed
    # next; either stops the check at once
    compose, calls = twistedop.compose, []

    def bumped(f, g):
        calls.append(None)
        h = compose(f, g)
        return h._replace(degree=h.degree + 1) if len(calls) >= broken else h

    monkeypatch.setattr(twistedop, "compose", bumped)
    code, out, _ = run(capsys, "twisted", "demo")
    assert (code, len(calls)) == (3, broken)
    assert out.splitlines()[-3:] == [
        "(A,6) == (A,2) o (I,4): FAIL",
        "A^[p^2] collapses to constant terms: PASS",
        "identity chain: (I,4) == (I,2)^o1 o (I,2): FAIL",  # the check's one verdict
    ]


def test_twisted_demo_deterministic(capsys):
    code, out1, _ = run(capsys, "twisted", "demo", "--seed", "5")
    assert code == 0
    assert "PASS" in out1 and "FAIL" not in out1
    _, out2, _ = run(capsys, "twisted", "demo", "--seed", "5")
    assert out1 == out2
    code, _, err = run(capsys, "twisted", "demo", "--e", "1")
    assert code == 1  # e below the kill threshold for N=4


def test_twisted_demo_deep_twist_splits_by_squaring(capsys):
    code, out, _ = run(capsys, "twisted", "demo", "--p", "3", "--N", "5", "--r", "3",
                       "--e", str(10**18))
    assert code == 0
    assert out.splitlines()[-1] == (
        "identity chain: (I,999999999999999998) == (I,2)^o499999999999999998 "
        "o (I,2): PASS"
    )


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["sequence", "--help"], ["mdpoly", "--help"], ["segre", "--help"]):
        first = run(capsys, *argv)
        assert first[0] == 0 and first[1]
        # the parser is shared between calls, so a second help prints the same
        assert run(capsys, *argv) == first


@pytest.mark.parametrize("command", ["mdpoly", "sequence", "complexity", "segre"])
def test_p_and_d_are_required(capsys, command):
    # every command that shares the --p/--d parent parser refuses either one left out
    extra = ["--emax", "2"] if command == "sequence" else []
    for missing, given in (("--p", ["--d", "3"]), ("--d", ["--p", "2"])):
        assert run(capsys, command, *given, *extra) == (
            1, "", f"error: the following arguments are required: {missing}\n")


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # every frobcx call is a fresh process that imports the CLI and builds its
    # parser first; dataclasses alone, with the inspect it loads, took about a
    # quarter of that.  -S keeps site hooks, which may load typing, out
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, frobcx.cli; frobcx.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_decimal_rendering():
    places = decimal_places(Fraction(1, 10**9))
    assert places == 11
    assert decimal_str(Fraction(1, 3), 4, round_up=False) == "0.3333"
    assert decimal_str(Fraction(1, 3), 4, round_up=True) == "0.3334"
    assert decimal_str(Fraction(2), 3, round_up=False) == "2.000"
    assert decimal_str(Fraction(-1, 3), 2, round_up=False) == "-0.34"
    assert decimal_str(Fraction(-1, 3), 2, round_up=True) == "-0.33"
    assert decimal_str(Fraction(5), 0, round_up=True) == "5"
    # tol 1e-5000 needs more digits than Python converts by default; main
    # lifts the limit for the command, as done here
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        places = decimal_places(Fraction(1, 10**5000))
        lo = decimal_str(Fraction(1, 3), places, round_up=False)
        hi = decimal_str(Fraction(-2, 3), places, round_up=True)
    finally:
        sys.set_int_max_str_digits(limit)
    assert places == 5002
    assert lo == "0." + "3" * 5002
    assert hi == "-0." + "6" * 5002


def test_counts_past_the_int_str_digit_limit(capsys):
    code, out, err = run(capsys, "sequence", "--p", "11", "--d", "10", "--emax", "460",
                         "--format", "csv")
    assert (code, err) == (0, "")
    e, ce, _ = out.splitlines()[-1].split(",")
    c = complexity_term(11, 10, 460)
    # compared without int/str conversions, which the digit limit would refuse
    assert e == "460" and len(ce) > 4300
    assert 10 ** (len(ce) - 1) <= c < 10 ** len(ce)
    assert int(ce[-18:]) == c % 10**18


def test_main_restores_the_digit_limit(capsys):
    default = sys.get_int_max_str_digits()
    runs = [(("mdpoly", "--p", "2", "--d", "4"), 0), (("mdpoly", "--p", "4", "--d", "4"), 1),
            (("nonsense",), 1), (("--help",), 0),
            (("sequence", "--p", "2", "--d", "6", "--emax", "8", "--engine", "enumerate",
              "--max-compositions", "1000"), 2)]
    try:
        for limit in (default, 5000):
            sys.set_int_max_str_digits(limit)
            for argv, expected in runs:
                assert run(capsys, *argv)[0] == expected
                assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(default)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=400),
)
@example(7, 9, 400)  # the largest counts, about 2,700 digits
def test_decimal_sweep_prints_the_int_sweep_digit_for_digit(p, d, emax):
    ints = sweep(p, d, emax)
    with decimal.localcontext(EXACT):
        decimals = list(ENGINE_TERMS["transfer"](p, d, emax, None))
        decimal_sums = list(accumulate(decimals))
    assert [str(v) for v in decimals] == [str(v) for v in ints]
    assert [str(v) for v in decimal_sums] == [str(v) for v in accumulate(ints)]


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_transfer_output_past_the_digit_limit_matches_int_rows(capsys, monkeypatch, fmt):
    argv = ("sequence", "--p", "11", "--d", "10", "--emax", "460", "--engine", "transfer",
            "--format", fmt)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    # the same rows rendered by the same code from sweep's ints
    monkeypatch.setitem(ENGINE_TERMS, "transfer", lambda p, d, emax, guard: sweep(p, d, emax))
    assert run(capsys, *argv) == (0, out, "")
    assert max(map(len, out.replace(",", " ").split())) > 4300


def printed_sequence(p, d, engine, c, fmt):
    # sequence's output for the counts c as it was rendered before it was
    # streamed: one dict through render_json, or one print per csv or table line
    k = list(accumulate(c))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if fmt == "json":
            print(render_json({"p": p, "d": d, "engine": engine,
                               "c": [str(v) for v in c], "k": [str(v) for v in k]}))
        elif fmt == "csv":
            print("e,c_e,k_e")
            for e, (ce, ke) in enumerate(zip(c, k)):
                print(f"{e},{ce},{ke}")
        else:
            print(f"# p={p} d={d} engine={engine}")
            wc = max(len(str(c[min(len(c) - 1, 1)])), len(str(c[-1])), 3)
            wk = max(len(str(k[-1])), 3)
            print(f"{'e':>3} {'c_e':>{wc}} {'k_e':>{wk}}")
            for e, (ce, ke) in enumerate(zip(c, k)):
                print(f"{e:>3} {ce:>{wc}} {ke:>{wk}}")
    return buf.getvalue()


def sequence_args(p, d, emax, engine, fmt):
    return ["sequence", "--p", str(p), "--d", str(d), "--emax", str(emax),
            "--engine", engine, "--format", fmt]


def reference_counts(p, d, emax, engine):
    # the counts without the CLI: sweep's ints for transfer, the engine's own
    # ints otherwise
    if engine == "transfer":
        return sweep(p, d, emax)
    return list(ENGINE_TERMS[engine](p, d, emax, 10**8))


def sequence_lines(argv):
    # the lines sequence writes for argv; Decimal counts must be taken under EXACT
    args = build_parser().parse_args(argv)
    return _sequence_lines(args, *_sequence_counts(args))


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_streamed_sequence_matches_the_printed_one(capsys, fmt):
    # enumerate's ints and transfer's Decimals, emax 0, 1 and 2 (one and two
    # rows before the widths can come from c_1), d <= 2 (counts 0 from e = 2)
    grid = [(p, d, emax, engine) for p in (2, 3, 5) for d in (1, 2, 3, 4)
            for emax in (0, 1, 2, 3) for engine in ("enumerate", "transfer")]
    grid += [(7, d, 30, "transfer") for d in (1, 2, 3, 5)]
    grid.append((2, 4, 2000, "transfer"))  # about 3 MB, many chunks
    for p, d, emax, engine in grid:
        argv = sequence_args(p, d, emax, engine, fmt)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        counts = reference_counts(p, d, emax, engine)
        assert out == printed_sequence(p, d, engine, counts, fmt), argv
        if fmt == "json":
            assert json.loads(out)["c"] == [str(v) for v in counts]
    assert len(out) > 20 * _CHUNK


def test_streamed_sequence_is_written_in_bounded_chunks():
    writes = []

    class Sink:
        write = writes.append

    with decimal.localcontext(EXACT):
        _write_lines(sequence_lines(sequence_args(2, 4, 2000, "transfer", "csv")), Sink())
    out = "".join(writes)
    longest_line = max(map(len, out.splitlines(keepends=True)))
    assert len(writes) > 20
    assert all(_CHUNK <= len(w) < _CHUNK + longest_line for w in writes[:-1])
    assert out == printed_sequence(2, 4, "transfer", sweep(2, 4, 2000), "csv")


def opening_request(fmt):
    # the benchmark's opening request, about 34 MB of output.  One JSON string
    # of it peaked near 100 MiB, and holding its counts and sums 15.5 MiB
    return sequence_args(2, 3, 8384, "transfer", fmt)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_streamed_sequence_memory_stays_bounded(fmt):
    lines = sequence_lines(opening_request(fmt))
    with open(os.devnull, "w") as sink, decimal.localcontext(EXACT):
        tracemalloc.start()
        try:
            _write_lines(lines, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_sequence_command_memory_stays_bounded(fmt):
    # the whole command: parsing, the sweeps, the table's widths and writing
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(opening_request(fmt)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * 2**20


def test_exact_context_traps_rounding():
    assert EXACT.prec == decimal.MAX_PREC
    narrow = EXACT.copy()
    narrow.prec = 50  # c_e for (2, 4) passes 50 digits near e = 60
    with decimal.localcontext(narrow):
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            list(iter_counts(2, 4, 200, number=decimal.Decimal))
    with decimal.localcontext(EXACT):
        assert list(iter_counts(2, 4, 200, number=decimal.Decimal)) == sweep(2, 4, 200)


def test_main_restores_the_decimal_context(capsys):
    default = decimal.getcontext()
    runs = [(("sequence", "--p", "2", "--d", "4", "--emax", "30", "--engine", "transfer"), 0),
            (("sequence", "--p", "4", "--d", "4", "--emax", "3"), 1),
            (("sequence", "--p", "2", "--d", "4", "--emax", "3", "--engine", "closed"), 1),
            (("sequence", "--p", "2", "--d", "6", "--emax", "8", "--engine", "enumerate",
              "--max-compositions", "1000"), 2),
            (("verify", "--quiet"), 0),
            (("verify", "--quiet", "--inject-fault"), 3)]
    try:
        for context in (default, decimal.Context(prec=7, traps=[decimal.Inexact])):
            decimal.setcontext(context)
            settings_before = repr(context)
            for argv, expected in runs:
                assert run(capsys, *argv)[0] == expected
                assert decimal.getcontext() is context
                assert repr(context) == settings_before
    finally:
        decimal.setcontext(default)


def frobcx_process(*argv):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "frobcx", *argv],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def assert_exits_quietly_when_closed(proc):
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""  # no traceback, no message


def test_closed_pipe_exits_without_traceback():
    # about 3 MB of output, far more than a pipe buffers, so the writer is
    # still writing when the reader goes away after one line
    proc = frobcx_process("sequence", "--p", "2", "--d", "4", "--emax", "2000")
    assert proc.stdout.readline().startswith(b"# p=2 d=4")
    assert_exits_quietly_when_closed(proc)


def test_closed_pipe_mid_stream_exits_without_traceback():
    # frobcx sequence ... | head -c 100: the reader leaves while the sweep
    # still yields counts
    proc = frobcx_process(*sequence_args(2, 4, 3000, "transfer", "csv"))
    assert proc.stdout.read(100).startswith(b"e,c_e,k_e\n0,0,0\n1,4,4\n")
    assert_exits_quietly_when_closed(proc)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_sequence_takes_every_count_under_the_exact_context(capsys, fmt):
    # (2, 4) counts pass 28 digits near e = 35.  A count or sum taken outside
    # EXACT, in json's second pass or the table's widths too, rounds under
    # the default context and raises under the narrow trapping one
    argv = sequence_args(2, 4, 120, "transfer", fmt)
    expected = printed_sequence(2, 4, "transfer", sweep(2, 4, 120), fmt)
    default = decimal.getcontext()
    try:
        for context in (decimal.Context(),
                        decimal.Context(prec=7, traps=[decimal.Inexact, decimal.Rounded])):
            decimal.setcontext(context)
            settings_before = repr(context)
            assert run(capsys, *argv) == (0, expected, "")
            assert decimal.getcontext() is context
            assert repr(context) == settings_before
    finally:
        decimal.setcontext(default)
