"""Golden CLI outputs: stdout, stderr and exit code of ``frobcx.cli.main``.

``data/cli_golden.json`` holds one record per command of the grid below,
captured from the code before the CLI was rewired onto the library's
sequence, complexity and engine code.  The changed ``complexity`` and
``segre`` records were captured again when the radius enclosure moved to
shifted inverse iteration, again when it moved to Newton's method on
the characteristic polynomial, again when Newton's method began at the
smaller of the largest row and column sums, again when Collatz-Wielandt
ratio bounds began to decide the enclosure before Newton's method, and
again when those bounds lost their extrapolated give-up and began to decide
(5, 5) at tol 10 (three records), each of which prints other endpoints and
iteration counts; a second test checks every printed interval against
mpmath.  The ``carry`` records at d <= 2 and the listings of ``verify`` were captured
again when the carry and closed engines began to count the first level
themselves; a third test checks those carry records against ``enumerate``.
Every record must still match byte for byte.  Run ``python
tests/test_cli_golden.py`` to rewrite the file from the current code,
which is only right when an output change is intended.

The grid: ``mdpoly`` in both formats; ``sequence`` for every engine on
small cells, each cell in one of the three formats in turn, leaving out
cells that would enumerate more than 10^5 compositions (about 0.1 s each);
``sequence`` for the ``transfer`` and ``auto`` engines in all three formats
at (p, d) = (2, 5), (3, 5) and (2, 12), with emax one below, at and one past
the crossover T = n^2/4 + n + 8 of ``frobcx.transfer`` (n = d - 2), where
the counts turn to chi's recurrence; ``complexity`` and ``segre`` in both
formats at four tolerances, and ``complexity`` tables at tol 1e-100 and
1e-300 for d = 6..8, narrow enough for the most Newton steps, at 1e-15 and
1e-30 for (2, 24), at 1e-9 for (2, 30) and (2, 40), where the complexity's
upper end is capped at d - 1, and at 1e-3 and 1e-9 for (3, 14): the ratio
bounds decide (2, 24) at 1e-15, (2, 30), (2, 40) and (3, 14) at 1e-3, and
give up at the other two, where Newton's method runs on a chi of degree
22 and 12; ``complexity`` tables at 1e-30 for (3, 14) and at 1e-9
for (2, 12), (2, 14), (3, 12), (3, 13), (5, 12) and (5, 13), where the ratio
bounds give up and Newton's method runs on a chi of degree 10 to 12;
``complexity`` tables at 1e-9 and 1e-30 for (2, 20) and (5, 14), and
``segre`` tables at 1e-30 for (2, 14) and (3, 14), five of which run
Newton's method on a chi of degree 18 or 12;
``verify`` in full, with an injected fault and with a tripping guard (a
passing ``verify --quiet`` prints the last line of ``verify``;
``test_cli.py`` checks it byte for byte); ``twisted demo``; refused inputs
(exit 1) and guard trips (exit 2).
"""

import contextlib
import io
import json
import os
import random
import re
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import mpmath

from frobcx.cli import AUTO_ENUMERATE_LIMIT, decimal_places, main
from frobcx.enumeration import composition_count
from frobcx.transfer import build_system

DATA = Path(__file__).parent / "data" / "cli_golden.json"
ENV_NAMES = ("FROBCX_MAX_COMPOSITIONS", "FROBCX_MAX_CARRYVECTORS")
ENUMERATION_LIMIT = 10**5


def _enumerated(p, d, emax, engine):
    # compositions the sequence command walks for this cell
    walks = engine == "enumerate" or (
        engine == "auto" and emax >= 1
        and composition_count(p**emax - 1, d) <= AUTO_ENUMERATE_LIMIT)
    return sum(composition_count(p**e - 1, d) for e in range(1, emax + 1)) if walks else 0


def grid():
    """(argv, env) pairs; env sets the guard variables for that command."""
    cmds = []
    for p in (2, 3, 5):
        for d in range(1, 7):
            for fmt in ("json", "table"):
                cmds.append((["mdpoly", "--p", p, "--d", d, "--format", fmt], {}))
    for engine in ("auto", "transfer", "enumerate", "carry", "closed"):
        for p in (2, 3, 5):
            for d in range(1, 7):
                for emax in range(4):
                    if _enumerated(p, d, emax, engine) > ENUMERATION_LIMIT:
                        continue
                    fmt = ("table", "json", "csv")[(p + d + emax) % 3]
                    cmds.append((["sequence", "--p", p, "--d", d, "--emax", emax,
                                  "--engine", engine, "--format", fmt], {}))
    for p, d, crossover in ((2, 5, 13), (3, 5, 13), (2, 12, 43)):  # T = n^2/4 + n + 8
        for emax in (crossover - 1, crossover, crossover + 1):
            for engine in ("transfer", "auto"):
                for fmt in ("csv", "json", "table"):
                    cmds.append((["sequence", "--p", p, "--d", d, "--emax", emax,
                                  "--engine", engine, "--format", fmt], {}))
    for command in ("complexity", "segre"):
        for p, d in ((2, 3), (3, 3), (5, 3), (2, 4), (3, 4), (2, 5), (5, 5), (2, 8)):
            for tol in ("1e-3", "1e-9", "1/7", "10"):
                for fmt in ("json", "table"):
                    cmds.append(([command, "--p", p, "--d", d, "--tol", tol,
                                  "--format", fmt], {}))
    for p, d, tols in ((2, 6, ("1e-100", "1e-300")), (3, 8, ("1e-100", "1e-300")),
                       (5, 7, ("1e-100", "1e-300")), (2, 24, ("1e-15", "1e-30")),
                       (2, 30, ("1e-9",)), (2, 40, ("1e-9",)),
                       (3, 14, ("1e-3", "1e-9", "1e-30")), (2, 12, ("1e-9",)),
                       (2, 14, ("1e-9",)), (3, 12, ("1e-9",)), (3, 13, ("1e-9",)),
                       (5, 12, ("1e-9",)), (5, 13, ("1e-9",))):
        for tol in tols:  # narrow enough for the most Newton steps, or wide matrices
            cmds.append((["complexity", "--p", p, "--d", d, "--tol", tol,
                          "--format", "table"], {}))
    for p, d in ((2, 20), (5, 14)):  # chi of degree 18 and 12
        for tol in ("1e-9", "1e-30"):
            cmds.append((["complexity", "--p", p, "--d", d, "--tol", tol,
                          "--format", "table"], {}))
    for p, d in ((2, 14), (3, 14)):
        cmds.append((["segre", "--p", p, "--d", d, "--tol", "1e-30", "--format", "table"], {}))
    cmds += [
        (["verify"], {}),
        (["verify", "--inject-fault"], {}),
        (["verify", "--quiet", "--inject-fault"], {}),
        (["verify", "--max-compositions", 1000], {}),
        (["verify", "--quiet"], {"FROBCX_MAX_COMPOSITIONS": "500"}),
        (["twisted", "demo"], {}),
        (["twisted", "demo", "--seed", 5], {}),
        (["twisted", "demo", "--p", 3, "--N", 3, "--r", 3, "--e", 4, "--seed", 11], {}),
        (["twisted", "demo", "--p", 2, "--N", 8, "--r", 2, "--e", 9, "--seed", 2], {}),
        (["twisted", "demo", "--p", 5, "--N", 2, "--r", 1, "--e", 1], {}),
    ]
    refused = [
        ["mdpoly", "--p", 4, "--d", 3],
        ["mdpoly", "--p", 2, "--d", 0],
        ["sequence", "--p", 1, "--d", 3, "--emax", 2],
        ["sequence", "--p", 9, "--d", 3, "--emax", 2],
        ["sequence", "--p", 2, "--d", 0, "--emax", 2],
        ["sequence", "--p", 2, "--d", 4, "--emax", -1],
        ["complexity", "--p", 2, "--d", 2],
        ["complexity", "--p", 6, "--d", 4],
        ["complexity", "--p", 2, "--d", 4, "--tol", "0"],
        ["complexity", "--p", 2, "--d", 4, "--tol", "-1e-3"],
        ["complexity", "--p", 2, "--d", 4, "--tol", "abc"],
        ["complexity", "--p", 2, "--d", 4, "--tol", "1/0"],
        ["segre", "--p", 3, "--d", 1],
        ["segre", "--p", 3, "--d", 5, "--tol", "0"],
        ["twisted", "demo", "--e", 1],
        ["twisted", "demo", "--N", 0],
        ["twisted", "demo", "--r", 0],
        ["twisted", "demo", "--p", 8],
    ]
    cmds += [(argv, {}) for argv in refused]
    cmds += [
        (["sequence", "--p", 2, "--d", 6, "--emax", 8, "--engine", "enumerate",
          "--max-compositions", 1000], {}),
        (["sequence", "--p", 2, "--d", 4, "--emax", 3, "--engine", "enumerate",
          "--max-compositions", 0], {}),
        (["sequence", "--p", 3, "--d", 5, "--emax", 4, "--engine", "carry",
          "--max-carryvectors", 20], {}),
        (["sequence", "--p", 2, "--d", 4, "--emax", 3, "--engine", "enumerate"],
         {"FROBCX_MAX_COMPOSITIONS": "10"}),
        (["sequence", "--p", 2, "--d", 5, "--emax", 5, "--engine", "carry"],
         {"FROBCX_MAX_CARRYVECTORS": "10"}),
        (["sequence", "--p", 2, "--d", 4, "--emax", 3, "--engine", "enumerate",
          "--max-compositions", 100000], {"FROBCX_MAX_COMPOSITIONS": "10"}),
        (["sequence", "--p", 2, "--d", 4, "--emax", 3, "--engine", "auto",
          "--max-compositions", 5], {}),
        (["sequence", "--p", 2, "--d", 4, "--emax", 3],
         {"FROBCX_MAX_COMPOSITIONS": "not-a-number"}),
        (["sequence", "--p", 2, "--d", 4, "--emax", 3, "--engine", "transfer"],
         {"FROBCX_MAX_CARRYVECTORS": "1e3"}),
        (["verify", "--quiet"], {"FROBCX_MAX_COMPOSITIONS": "ten"}),
        (["sequence", "--p", 2, "--d", 5, "--emax", 8, "--engine", "carry"], {}),
        (["sequence", "--p", 2, "--d", 4, "--emax", 40, "--format", "csv"], {}),
    ]
    return [([str(a) for a in argv], env) for argv, env in cmds]


def run(argv, env):
    """(exit code, stdout, stderr) of main(argv) under the given guard variables."""
    saved = {name: os.environ.pop(name, None) for name in ENV_NAMES}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        for name, value in saved.items():
            os.environ.pop(name, None)
            if value is not None:
                os.environ[name] = value
    return code, out.getvalue(), err.getvalue()


def _mismatched(records):
    """argv of each record whose run differs from it, running them in order."""
    return [r["argv"] for r in records
            if run(r["argv"], r["env"]) != (r["code"], r["stdout"], r["stderr"])]


def test_cli_output_matches_golden():
    records = json.loads(DATA.read_text())
    assert [(r["argv"], r["env"]) for r in records] == grid()
    assert _mismatched(records) == []


def test_cli_output_matches_golden_in_any_order():
    # main shares one parser between calls, so no call may depend on the ones before
    records = json.loads(DATA.read_text())
    shuffled = records[:]
    random.Random(13).shuffle(shuffled)
    assert _mismatched(records[::-1]) == []
    assert _mismatched(shuffled) == []


def test_refused_parse_leaves_the_defaults():
    # complexity's defaults are --tol 1e-9 --format json
    argv = ["complexity", "--p", "2", "--d", "4"]
    golden = next(r for r in json.loads(DATA.read_text())
                  if r["argv"] == argv + ["--tol", "1e-9", "--format", "json"])
    for refused in (["nonsense"], argv + ["--tol", "abc"], argv + ["--format", "csv"]):
        assert run(refused, {})[0] == 1
        assert run(argv, {}) == (golden["code"], golden["stdout"], golden["stderr"])


def test_carry_below_three_variables_prints_what_enumerate_prints():
    # carry counts every level for every d: at d <= 2 its records are the
    # enumerate engine's output with the engine name swapped
    records = [r for r in json.loads(DATA.read_text())
               if r["argv"][0] == "sequence" and "carry" in r["argv"]
               and int(r["argv"][r["argv"].index("--d") + 1]) <= 2]
    assert len(records) == 24
    for r in records:
        argv = [a.replace("carry", "enumerate") for a in r["argv"]]
        code, out, err = run(argv, r["env"])
        named = out.replace("engine=enumerate", "engine=carry").replace(
            '"engine": "enumerate"', '"engine": "carry"')
        assert (r["code"], r["stdout"], r["stderr"]) == (code, named, err) == (0, named, ""), argv


def _printed_intervals(fmt, out):
    """{"rho" or "cxf": (lo, hi)} as printed, decimal strings."""
    if fmt == "json":
        payload = json.loads(out)
        return {key: (payload[f"{key}_lo"], payload[f"{key}_hi"])
                for key in ("rho", "cxf") if f"{key}_lo" in payload}
    found = re.findall(r"^(growth rate|complexity) +in \[(\S+), (\S+)\]", out, re.M)
    assert len(found) == 2, out
    return {"rho" if label == "growth rate" else "cxf": (lo, hi) for label, lo, hi in found}


def test_printed_intervals_contain_the_radius_and_meet_their_width():
    # every complexity and segre record: each printed interval holds rho, or
    # log_p(rho), computed by mpmath's eigenvalues at twice the printed
    # digits, or at the digits of (d - 1)! where those are more, and is no
    # wider than tol plus the outward rounding to them.  rho lies below
    # p^(d-1) by a relative amount of about 1/(d - 1)!, and a printed upper
    # end may be p^(d-1) itself, as at (2, 40), where 32 digits put rho above it
    checked = 0
    for r in json.loads(DATA.read_text()):
        if r["argv"][0] not in ("complexity", "segre") or r["code"] != 0:
            continue
        args = dict(zip(r["argv"][1::2], r["argv"][2::2]))
        p, d, tol = int(args["--p"]), int(args["--d"]), Fraction(args["--tol"])
        places = decimal_places(tol)
        with mpmath.workdps(max(2 * places, len(str(factorial(d - 1)))) + 10):
            matrix = mpmath.matrix([list(row) for row in build_system(p, d).matrix])
            eigenvalues = mpmath.eig(matrix, left=False, right=False)
            if d == 3:  # mpmath returns (E, EL, ER) for 1x1, whatever the flags
                eigenvalues = eigenvalues[0]
            rho = max(abs(v) for v in eigenvalues)
            reference = {"rho": rho, "cxf": mpmath.log(rho) / mpmath.log(p)}
            for key, (lo, hi) in _printed_intervals(args["--format"], r["stdout"]).items():
                assert len(lo.partition(".")[2]) == places == len(hi.partition(".")[2])
                assert Fraction(hi) - Fraction(lo) <= tol + Fraction(2, 10**places), r["argv"]
                assert mpmath.mpf(lo) <= reference[key] <= mpmath.mpf(hi), (r["argv"], key)
                checked += 1
    # 8 pairs, 4 tols; complexity prints 2 intervals, segre 2 in a table, 1 in
    # json; then 23 narrow or wide complexity tables and 2 segre tables, of 2
    # intervals each
    assert checked == 8 * 4 * (2 + 2 + 2 + 1) + 23 * 2 + 2 * 2


if __name__ == "__main__":
    records = []
    for argv, env in grid():
        code, out, err = run(argv, env)
        records.append({"argv": argv, "env": env, "code": code, "stdout": out, "stderr": err})
    DATA.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {DATA}", file=sys.stderr)
