"""Reference answers and output checks for the benchmark, independent of frobcx.

Nothing here imports frobcx.  Counts are checked modulo a few 61-bit
primes against the benchmark's own transfer recurrence, built on its own
expansion of (1 + t + ... + t^{p-1})^d.  Small counts are also checked
against the d = 3 closed form and the composition-count upper bound.
Spectral radii come from mpmath: a float power iteration finds the Perron
pair, and inverse iteration in mpmath refines it past the requested
tolerance.

Decimal strings longer than Python's int/str conversion limit are parsed
in chunks, so this module never changes that limit: a process that runs
frobcx must keep the default, or the 4,300-digit defect would be hidden.

Every ``check_*`` function returns None when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb

import mpmath

PRIMES = (2305843009213693951, 2305843009213693921, 2305843009213693907)
_CHUNK = 4000  # digits per int() call, below the default 4,300 limit


def parse_decimal(text: str) -> int:
    """Exact int from a decimal string of any length."""
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("+-")
    if not digits.isdigit():
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    n = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i:i + _CHUNK]
        n = n * 10 ** len(chunk) + int(chunk)
    return sign * n


def _fraction(text: str) -> Fraction:
    whole, _, frac = text.strip().partition(".")
    sign = -1 if whole.startswith("-") else 1
    num = parse_decimal(whole.lstrip("-") + frac)
    return sign * Fraction(num, 10 ** len(frac))


# --- counts -------------------------------------------------------------------

@lru_cache(maxsize=None)
def digit_poly(p: int, d: int) -> tuple[int, ...]:
    """Coefficients of (1 + t + ... + t^{p-1})^d."""
    coeffs = [1]
    for _ in range(d):
        out = [0] * (len(coeffs) + p - 1)
        for i, c in enumerate(coeffs):
            for j in range(p):
                out[i + j] += c
        coeffs = out
    return tuple(coeffs)


@lru_cache(maxsize=None)
def transfer_system(p: int, d: int):
    """(U, x0, w) of the level recursion, as nested tuples; d >= 3."""
    m = digit_poly(p, d)

    def md(k: int) -> int:
        return m[k] if 0 <= k < len(m) else 0

    n = range(1, d - 1)
    u = tuple(tuple(md(p * i - j + p - 1) for j in n) for i in n)
    x0 = tuple(md(p * i + p - 1) for i in n)
    w = tuple(md(p - 1 - i) for i in n)
    return u, x0, w


def counts_mod(p: int, d: int, emax: int, q: int) -> list[int]:
    """c_e mod q for e = 0..emax, one matrix-vector product per level."""
    c = [0] * (emax + 1)
    if emax >= 1:
        c[1] = comb(d + p - 2, p - 1) % q
    if d >= 3 and emax >= 2:
        u, x, w = transfer_system(p, d)
        x = [v % q for v in x]
        for e in range(2, emax + 1):
            if e > 2:
                x = [sum(a * b for a, b in zip(row, x)) % q for row in u]
            c[e] = sum(a * b for a, b in zip(w, x)) % q
    return c


def _mat_mul_mod(a, b, q):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % q for col in cols] for row in a]


def count_mod(p: int, d: int, e: int, q: int) -> int:
    """c_e mod q for one level, by binary powering of U modulo q."""
    if e <= 1 or d < 3:
        return counts_mod(p, d, e, q)[e] if e >= 0 else 0
    u, x0, w = transfer_system(p, d)
    n = len(x0)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    base = [[v % q for v in row] for row in u]
    k = e - 2
    while k:
        if k & 1:
            result = _mat_mul_mod(result, base, q)
        base = _mat_mul_mod(base, base, q)
        k >>= 1
    x = [sum(a * b for a, b in zip(row, x0)) % q for row in result]
    return sum(a * b for a, b in zip(w, x)) % q


def closed_form_d3(p: int, e: int) -> int:
    return p**e * (p - 1) ** 2 * (p + 1) ** (e - 2) // 2**e


def _count_error(p, d, e, value) -> str | None:
    for q in PRIMES:
        if value % q != count_mod(p, d, e, q):
            return f"c_{e} for p={p} d={d} is wrong modulo {q}"
    return None


# --- spectral references -----------------------------------------------------

@lru_cache(maxsize=None)
def radius(p: int, d: int, dps: int):
    """Spectral radius of the transfer matrix, as an mpf good to ~dps digits.

    Closed forms for d = 3 and (p, d) = (2, 4); otherwise a float power
    iteration gives the Perron pair and Rayleigh quotient iteration in
    mpmath refines it.
    """
    with mpmath.workdps(dps + 10):
        if d == 3:
            return mpmath.mpf(p * (p + 1) // 2)
        if (p, d) == (2, 4):
            return 5 + mpmath.sqrt(5)
        u = transfer_system(p, d)[0]
        n = len(u)
        x = [1.0] * n
        for _ in range(200):
            y = [sum(a * b for a, b in zip(row, x)) for row in u]
            top = max(y)
            x = [v / top for v in y]
        a = mpmath.matrix([list(row) for row in u])
        v = mpmath.matrix(x)
        lam = mpmath.mpf(top)
        eps = mpmath.mpf(10) ** -(dps + 5)
        for _ in range(30):
            v = mpmath.lu_solve(a - lam * mpmath.eye(n), v)
            v = v / mpmath.norm(v)
            new = (v.T * a * v)[0] / (v.T * v)[0]
            if abs(new - lam) < eps * new:
                return +new
            lam = new
        raise ArithmeticError(f"Rayleigh quotient iteration did not settle for p={p} d={d}")


def _digits_needed(tol: Fraction) -> int:
    return len(str(tol.denominator // tol.numerator)) + 20


def _interval_error(label, lo_s, hi_s, ref, tol: Fraction, places: int) -> str | None:
    lo, hi = _fraction(lo_s), _fraction(hi_s)
    if len(lo_s.partition(".")[2]) != places or len(hi_s.partition(".")[2]) != places:
        return f"{label} not printed to {places} places"
    slack = tol + Fraction(2, 10**places)
    if hi - lo > slack:
        return f"{label} width {float(hi - lo):.3g} exceeds tol {float(tol):.3g}"
    if not mpmath.mpf(lo.numerator) / lo.denominator <= ref <= mpmath.mpf(hi.numerator) / hi.denominator:
        return f"{label} [{lo_s[:20]}, {hi_s[:20]}] misses the reference"
    return None


def check_interval(op, out: str) -> str | None:
    """``complexity`` or ``segre`` JSON: certified, tight, and containing the reference."""
    p, d, tol = op["p"], op["d"], Fraction(op["tol"])
    payload = json.loads(out)
    places = len(str(-((-tol.denominator) // tol.numerator))) + 1
    dps = _digits_needed(tol)
    rho = radius(p, d, 60 if dps <= 60 else max(dps, 350))
    with mpmath.workdps(dps):
        cxf = mpmath.log(rho) / mpmath.log(p)
        err = _interval_error("complexity", payload["cxf_lo"], payload["cxf_hi"],
                              cxf, tol, places)
        if err is None and op["command"] == "complexity":
            err = _interval_error("growth rate", payload["rho_lo"], payload["rho_hi"],
                                  rho, tol, places)
    if err is None and op["command"] == "segre":
        expected = ("log_2(3)" if p == 2 else f"1 + log_{p}({p + 1}) - log_{p}(2)") \
            if d == 3 else "log_2(5 + sqrt(5))" if (p, d) == (2, 4) else None
        if (payload["p"], payload["d"], payload["closed_form"]) != (p, d, expected):
            err = "segre header or closed form is wrong"
    return err


# --- whole outputs -----------------------------------------------------------

def _sequence_rows(fmt: str, out: str, header: str):
    """(engine or None, [(e or None, c_e, k_e)], (p, d) or None) from one output."""
    if fmt == "json":
        payload = json.loads(out)
        rows = [(None, c, k) for c, k in zip(payload["c"], payload["k"])]
        return payload["engine"], rows, (payload["p"], payload["d"])
    lines = out.splitlines()
    if fmt == "csv":
        if lines[0] != "e,c_e,k_e":
            raise ValueError("bad csv header")
        return None, [tuple(line.split(",")) for line in lines[1:]], None
    if not lines[0].startswith(header):
        raise ValueError("bad table header")
    return lines[0].rpartition("engine=")[2], [tuple(line.split()) for line in lines[2:]], None


def check_sequence(op, out: str) -> str | None:
    """Every row's last 18 digits, and about 33 whole rows modulo each prime.

    Parsing every count in full would cost more than the op itself: str to
    int conversion is quadratic in the digit count.
    """
    p, d, emax, fmt = op["p"], op["d"], op["emax"], op["format"]
    engine, rows, pd = _sequence_rows(fmt, out, f"# p={p} d={d} engine=")
    if engine is not None and engine != op["engine"]:
        return f"engine {engine} reported, {op['engine']} expected"
    if pd is not None and pd != (p, d):
        return "json header is wrong"
    if len(rows) != emax + 1:
        return f"{len(rows)} rows for emax={emax}"
    if any(e not in (None, str(i)) for i, (e, _, _) in enumerate(rows)):
        return "rows are not numbered 0..emax"
    rows = [(c, k) for _, c, k in rows]
    if not all(c.isdigit() and k.isdigit() for c, k in rows):
        return "a count is not a decimal integer"
    sample = sorted(set(range(0, emax + 1, max(1, emax // 32))) | {emax})
    whole = {e: (parse_decimal(rows[e][0]), parse_decimal(rows[e][1])) for e in sample}
    both = counts_mod(p, d, emax, 10**18 * PRIMES[0] * PRIMES[1] * PRIMES[2])
    for q in (10**18,) + PRIMES:
        run, sums = 0, []
        for c in both:
            run = (run + c) % q
            sums.append((c % q, run))
        if q == 10**18:
            got = ((int(c[-18:]), int(k[-18:])) for c, k in rows)
            bad = next((e for e, (g, w) in enumerate(zip(got, sums)) if g != w), None)
        else:
            bad = next((e for e in sample if (whole[e][0] % q, whole[e][1] % q) != sums[e]), None)
        if bad is not None:
            return f"row e={bad} is wrong modulo {q}"
    return None


def check_crosscheck(op, values: dict) -> str | None:
    """All engines agree, the bounds hold, and the count matches the reference."""
    p, d, e = op["p"], op["d"], op["e"]
    c = values["enumerate"]
    engines = {k: v for k, v in values.items() if k != "lower_bound"}
    if any(v != c for v in engines.values()):
        return "engines disagree: " + " ".join(f"{k}={v}" for k, v in sorted(engines.items()))
    if d == 3 and c != closed_form_d3(p, e):
        return "count differs from the d=3 closed form"
    if not values["lower_bound"] <= c <= comb(p**e - 1 + d - 1, d - 1):
        return "count lies outside [lower_bound, composition count]"
    return _count_error(p, d, e, c)


def check_far_term(op, value: int) -> str | None:
    return _count_error(op["p"], op["d"], op["e"], value)


def check_mdpoly(op, out: str) -> str | None:
    if json.loads(out) != list(digit_poly(op["p"], op["d"])):
        return "coefficient table is wrong"
    return None


def check_twisted(op, out: str) -> str | None:
    lines = out.splitlines()
    head = (f"# twisted demo: p={op['p']} N={op['N']} r={op['r']} "
            f"e={op['e']} seed={op['seed']}")
    if lines[0] != head:
        return "twisted demo header is wrong"
    rows = [line for line in lines if line.startswith("  [")]
    verdicts = [line for line in lines if line.endswith(("PASS", "FAIL"))]
    if len(rows) != op["r"] or len(verdicts) < 2 or any(v.endswith("FAIL") for v in verdicts):
        return "twisted demo did not pass"
    return None


CHECKS = {
    "interval": check_interval,
    "sequence": check_sequence,
    "crosscheck": check_crosscheck,
    "far_term": check_far_term,
    "mdpoly": check_mdpoly,
    "twisted": check_twisted,
}


def check(op, result) -> tuple[bool, bool, str | None]:
    """(ok, wrong, reason) for one finished op.

    ``wrong`` marks an answer given with success status that fails its
    check; a refusal or crash is a failure but not a wrong answer.
    """
    if result.get("error"):
        return False, False, result["error"]
    if op["run"] == "cli":
        want = op.get("exit", 0)
        if result["code"] != want:
            return False, False, f"exit {result['code']}, expected {want}: {result['stderr'][:200]}"
        if want != 0:
            ok = result["stdout"] == "" and result["stderr"].startswith("error:")
            return ok, False, None if ok else "refusal without an error message"
        payload = result["stdout"]
    else:
        payload = result["value"]
    try:
        reason = CHECKS[op["check"]](op, payload)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        reason = f"unparseable output: {exc!r}"
    return reason is None, reason is not None, reason
