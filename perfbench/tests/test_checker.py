import json
import sys

import pytest
from frobcx import closedform, enumeration, transfer
from frobcx.cli import main

import checker


def _is_prime(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_moduli_are_61_bit_primes():
    assert all(q.bit_length() == 61 and _is_prime(q) for q in checker.PRIMES)


def test_long_decimals_parse_without_raising_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    text = "7" * 9000
    n = checker.parse_decimal(text)
    assert n == 7 * (10**9000 - 1) // 9
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("p,d,e", [(2, 4, 6), (3, 5, 4), (5, 6, 3), (2, 7, 9)])
def test_reference_counts_match_frobcx(p, d, e):
    c = transfer.complexity_term(p, d, e)
    assert checker.counts_mod(p, d, e, 10**30)[e] == c % 10**30
    assert checker.count_mod(p, d, e, checker.PRIMES[1]) == c % checker.PRIMES[1]
    assert checker.count_mod(p, d, 20000, checker.PRIMES[0]) == \
        checker.counts_mod(p, d, 20000, checker.PRIMES[0])[-1]


def _crosscheck_values(p, d, e):
    return {
        "enumerate": enumeration.count_basis_enumeration(p, d, e),
        "transfer": transfer.complexity_term(p, d, e),
        "carry": enumeration.count_basis_carryvectors(p, d, e),
        "lower_bound": closedform.lower_bound(p, d, e),
    }


def test_crosscheck_flags_a_count_off_by_one():
    op = {"p": 2, "d": 5, "e": 5}
    values = _crosscheck_values(2, 5, 5)
    assert checker.check_crosscheck(op, values) is None
    values = {k: v + (k != "lower_bound") for k, v in values.items()}
    assert "wrong modulo" in checker.check_crosscheck(op, values)
    assert checker.check_far_term(op, values["transfer"]) is not None


def _sequence_csv(capsys, p, d, emax):
    assert main(["sequence", "--p", str(p), "--d", str(d), "--emax", str(emax),
                 "--engine", "transfer", "--format", "csv"]) == 0
    return capsys.readouterr().out


def test_sequence_check_flags_a_faulted_transfer_matrix(capsys):
    # like `frobcx verify --inject-fault`: U[0][0] += 1 must be caught
    op = {"p": 2, "d": 5, "emax": 200, "format": "csv", "engine": "transfer"}
    out = _sequence_csv(capsys, 2, 5, 200)
    assert checker.check_sequence(op, out) is None
    system = transfer.build_system(2, 5)
    rows = [list(r) for r in system.matrix]
    rows[0][0] += 1
    faulted = transfer.TransferSystem(2, 5, tuple(map(tuple, rows)), system.x0, system.weights)
    c = [0, 10] + [sum(w * v for w, v in zip(faulted.weights, transfer.state(faulted, e - 2)))
                   for e in range(2, 201)]
    lines, run = ["e,c_e,k_e"], 0
    for e, ce in enumerate(c):
        run += ce
        lines.append(f"{e},{ce},{run}")
    assert checker.check_sequence(op, "\n".join(lines) + "\n") is not None


def test_sequence_check_flags_one_row_off_by_one_outside_the_sample(capsys):
    op = {"p": 3, "d": 4, "emax": 300, "format": "csv", "engine": "transfer"}
    lines = _sequence_csv(capsys, 3, 4, 300).splitlines()
    e, c, k = lines[1 + 101].split(",")
    lines[1 + 101] = f"{e},{int(c) + 1},{k}"
    assert "e=101" in checker.check_sequence(op, "\n".join(lines))
    lines[1 + 101] = f"102,{c},{k}"
    assert "numbered" in checker.check_sequence(op, "\n".join(lines))


def test_interval_check_catches_a_shifted_interval(capsys):
    op = {"command": "complexity", "p": 3, "d": 6, "tol": "1e-40"}
    assert main(["complexity", "--p", "3", "--d", "6", "--tol", "1e-40"]) == 0
    out = capsys.readouterr().out
    assert checker.check_interval(op, out) is None
    shifted = out.replace('"rho_lo": "', '"rho_lo": "1')
    assert checker.check_interval(op, shifted) is not None
    payload = json.loads(out)
    payload["cxf_hi"] = "5" + payload["cxf_hi"][1:]
    assert "width" in checker.check_interval(op, json.dumps(payload))


def test_refusals_need_exit_1_and_an_error_message():
    op = {"run": "cli", "check": "refusal", "exit": 1}
    assert checker.check(op, {"code": 1, "stdout": "", "stderr": "error: no"})[0]
    assert not checker.check(op, {"code": 0, "stdout": "x", "stderr": ""})[0]
    assert not checker.check(op, {"code": 2, "stdout": "", "stderr": "guard"})[0]
