"""Command-line interface.

Subcommands
-----------
mdpoly      coefficient table of (1 + t + ... + t^{p-1})^d
sequence    generator counts c_e and partial sums k_e, by a chosen engine
complexity  certified growth-rate and complexity intervals
segre       complexity report with closed-form expression where known
verify      cross-check all engines and bounds over a grid
twisted     demonstrations of the twisted operator algebra

Every command runs under EXACT, a decimal context in which any rounding
raises.  sequence --engine transfer (and auto, when it picks transfer)
sweeps the counts as exact decimals, which print in time linear in their
digits and byte-identical to integer counts; it writes each as the sweep
yields it and holds no list of them, so its memory stays bounded.  verify
compares these same Decimal counts, taken from the same engine table.

Exit codes: 0 success, 1 usage or validation error, 2 a deterministic
stop (an iteration guard exceeded, a radius enclosure that did not
converge or a growth rate that is not certified), 3 verification mismatch.

Iteration guards for the enumeration engines default to 10^8 and can be
set by --max-compositions / --max-carryvectors or the environment
variables FROBCX_MAX_COMPOSITIONS / FROBCX_MAX_CARRYVECTORS (flags win);
negative values are refused.  verify has no --max-carryvectors flag, so
FROBCX_MAX_CARRYVECTORS alone sets its carry guard.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections.abc import Callable, Iterable, Iterator
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, chain, islice, tee

from .basep import Prime
from .closedform import (
    closed_form_d3,
    known_complexity_expression,
    lower_bound,
)
from .enumeration import (
    DEFAULT_MAX_CARRYVECTORS,
    DEFAULT_MAX_COMPOSITIONS,
    composition_count,
    count_basis_carryvectors,
    count_basis_enumeration,
    guard_carryvectors,
    guard_compositions,
)
from .errors import Stopped
from .poincare import build_table
# perron_interval is unused here; perfbench/tests/test_spans.py checks this import site
from .spectral import _as_fraction, frobenius_complexity, perron_interval  # noqa: F401
from .transfer import TransferSystem, build_system, iter_counts, term_and_sum
from .twistedop import (
    _identity_chain,
    bracket,
    factorization_check,
    min_kill_degree,
    QuotientRing,
    random_operator,
)

FORMATS = ("table", "json", "csv")
AUTO_ENUMERATE_LIMIT = 10**6

_VERIFY_GRID = (  # (p, d range, emax): each level e = 1..emax is checked
    (2, range(1, 6), 4),
    (3, range(1, 6), 4),
    (5, range(1, 5), 3),
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; 2 is reserved for stops here
    def error(self, message):
        raise ValueError(message)


def render_json(obj) -> str:
    return json.dumps(obj, indent=2)


def decimal_places(tol: Fraction) -> int:
    """Digits after the point needed to display an interval of width tol."""
    inv = -((-tol.denominator) // tol.numerator)  # ceil(1/tol)
    return len(str(inv)) + 1


def decimal_str(x: Fraction, places: int, *, round_up: bool) -> str:
    """Fixed-point decimal rendering, rounded outward (down/up as asked)."""
    num = x.numerator * 10**places
    den = x.denominator
    n = -((-num) // den) if round_up else num // den
    sign = "-" if n < 0 else ""
    s = str(abs(n)).rjust(places + 1, "0")
    return f"{sign}{s[:-places]}.{s[-places:]}" if places else f"{sign}{s}"


def _guard_value(args, dest: str, default: int) -> int:
    """The guard from its flag, else its environment variable, else default.

    ``dest`` names both: max_compositions is --max-compositions and
    FROBCX_MAX_COMPOSITIONS.  Negative guards are refused.
    """
    value, source = getattr(args, dest, None), "--" + dest.replace("_", "-")
    if value is None:
        source = "FROBCX_" + dest.upper()
        raw = os.environ.get(source)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{source} must be >= 0, got {value}")
    return value


def _guards(args) -> dict[str, int]:
    """The guard of each engine that has one, by ``_guard_value``."""
    return {"enumerate": _guard_value(args, "max_compositions", DEFAULT_MAX_COMPOSITIONS),
            "carry": _guard_value(args, "max_carryvectors", DEFAULT_MAX_CARRYVECTORS)}


# --- sequence engines -------------------------------------------------------

# Exact decimal arithmetic: any rounding raises instead of printing a wrong
# digit.  Transfer counts are swept as Decimals under it, because str of a
# Decimal takes linear time and str of an int quadratic time in its digits.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])

# engine -> terms(p, d, emax, guard): the counts c_0..c_emax, for sequence
# and verify.  transfer returns a new sweep on Decimals, exact as main takes
# it under EXACT; the others yield c_0 = 0 and then one int per level e >= 1,
# so verify reports each level before a guard can stop the next one.
ENGINE_TERMS = {
    "transfer": lambda p, d, emax, guard: iter_counts(p, d, emax, number=Decimal),
    "enumerate": lambda p, d, emax, guard: chain((0,), (
        count_basis_enumeration(p, d, e, max_compositions=guard)
        for e in range(1, emax + 1))),
    "carry": lambda p, d, emax, guard: chain((0,), (
        count_basis_carryvectors(p, d, e, max_carryvectors=guard)
        for e in range(1, emax + 1))),
    "closed": lambda p, d, emax, guard: chain((0,), (
        closed_form_d3(p, e) for e in range(1, emax + 1))),
}
ENGINES = ("auto", *ENGINE_TERMS)
# engine -> its check of one level's guard, which sequence makes for every level
LEVEL_GUARDS = {"enumerate": guard_compositions, "carry": guard_carryvectors}


def _resolve_engine(engine: str, p: Prime, d: int, emax: int, guard: int) -> str:
    if engine == "auto":
        limit = min(AUTO_ENUMERATE_LIMIT, guard)
        # d >= 2 has at least p^emax compositions: once its bit length alone
        # passes the limit's, choose without forming p^emax
        if d >= 2 and emax >= 1 and emax * (p.bit_length() - 1) >= limit.bit_length():
            return "transfer"
        # d = 1 has one composition per level: no power of p is needed
        total = 0 if emax < 1 else 1 if d == 1 else composition_count(p**emax - 1, d)
        return "enumerate" if total <= limit else "transfer"
    if engine == "closed" and d != 3:
        raise ValueError("engine 'closed' applies to d = 3 only")
    return engine


def _sequence_counts(args) -> tuple[str, Callable[[], Iterable]]:
    """The engine ``sequence`` runs for ``args``, and a function giving its counts.

    A refusal raises here, before any output, and a guard trip before any
    level is counted.  transfer's counts are a new sweep on each call,
    checked when it is called; the other engines' are computed once, here,
    as a short list.
    """
    p = Prime(args.p)
    if args.d < 1:
        raise ValueError("d must be >= 1")
    if args.emax < 0:
        raise ValueError("emax must be >= 0")
    guards = _guards(args)
    engine = _resolve_engine(args.engine, p, args.d, args.emax, guards["enumerate"])
    if engine in LEVEL_GUARDS:
        for e in range(1, args.emax + 1):
            LEVEL_GUARDS[engine](p, args.d, e, guards[engine])
    counts = partial(ENGINE_TERMS[engine], p, args.d, args.emax, guards.get(engine))
    if engine != "transfer":
        terms = list(counts())
        counts = lambda: terms
    return engine, counts


# characters of output per write.  Lines are joined up to about this size:
# one write per line costs a system call every few long lines, and one string
# of the whole output costs its size in memory.  Rendering 33 MB of counts
# took 30-45% longer in chunks of 128 KiB or more than in chunks of 64 KiB
_CHUNK = 1 << 16


def _sequence_lines(args, engine: str, counts: Callable[[], Iterable]) -> Iterator[str]:
    """``sequence``'s output for ``args``, line by line, each with its newline.

    Each count becomes a string once, as its line is made, and k_e is summed
    as it goes; JSON lists the k_e after every c_e, so it runs the counts
    twice.  Decimal counts are exact only if the lines are taken under
    ``EXACT``, as ``main`` takes them.  JSON is laid out as ``render_json``
    lays out the same dict, without an encoder: its only strings are an
    engine name and digit strings, which need no escaping.
    """
    p, d, emax, fmt = args.p, args.d, args.emax, args.format
    if fmt == "json":
        yield f'{{\n  "p": {int(p)},\n  "d": {d},\n'
        yield f'  "engine": "{engine}",\n'
        # the second run of counts starts when the k list does
        for name, values, close in (("c", counts(), "  ],\n"),
                                    ("k", accumulate(counts()), "  ]\n}\n")):
            yield f'  "{name}": [\n'
            values = iter(values)
            last = next(values)  # the last item takes no comma
            for v in values:
                yield f'    "{last!s}",\n'
                last = v
            yield f'    "{last!s}"\n{close}'
        return
    c, summed = tee(counts())
    rows = enumerate(zip(c, accumulate(summed)))
    if fmt == "csv":
        yield "e,c_e,k_e\n"
        for e, (ce, ke) in rows:
            yield f"{e},{ce!s},{ke!s}\n"
        return
    yield f"# p={p} d={d} engine={engine}\n"
    # c_1 or c_emax is the widest count: from e = 2 on, counts are 0 for
    # d <= 2 and never decrease for d >= 3, since U has a positive diagonal.
    # transfer's counts yield c_1 before they build a system, and its last
    # row comes by Fiduccia's method, so that no sweep runs before row 0
    c_1 = next(islice(counts(), min(emax, 1), None))
    if engine == "transfer":
        c_last, k_last = term_and_sum(p, d, emax)
    else:
        terms = counts()
        c_last, k_last = terms[-1], sum(terms)
    wc, wk = max(len(str(c_1)), len(str(c_last)), 3), max(len(str(k_last)), 3)
    yield f"{'e':>3} {'c_e':>{wc}} {'k_e':>{wk}}\n"
    for e, (ce, ke) in rows:
        yield f"{e:>3} {str(ce).rjust(wc)} {str(ke).rjust(wk)}\n"


def _write_lines(lines: Iterator[str], out) -> None:
    """Write ``lines`` to ``out`` in joined chunks of about ``_CHUNK`` characters."""
    chunk, size = [], 0
    for line in lines:
        chunk.append(line)
        size += len(line)
        if size >= _CHUNK:
            out.write("".join(chunk))
            chunk, size = [], 0
    out.write("".join(chunk))


def _cmd_sequence(args) -> int:
    _write_lines(_sequence_lines(args, *_sequence_counts(args)), sys.stdout)
    return 0


# --- spectral commands ------------------------------------------------------

def _cmd_mdpoly(args) -> int:
    table = build_table(args.p, args.d)
    if args.format == "table":
        print(f"# p={args.p} d={args.d} top_degree={len(table) - 1}")
        for m, c in enumerate(table):
            print(f"{m:>3} {c}")
    else:
        print(json.dumps(list(table)))
    return 0


def _complexity_report(args, refusal: str):
    """(p, radius enclosure, decimal endpoints) for complexity and segre."""
    p = Prime(args.p)
    if args.d < 3:
        raise ValueError(refusal)
    tol = _as_fraction(args.tol)
    cx = frobenius_complexity(p, args.d, tol)
    places = decimal_places(tol)
    return p, cx.radius, {
        "rho_lo": decimal_str(cx.radius.lo, places, round_up=False),
        "rho_hi": decimal_str(cx.radius.hi, places, round_up=True),
        "cxf_lo": decimal_str(cx.lo, places, round_up=False),
        "cxf_hi": decimal_str(cx.hi, places, round_up=True),
    }


def _cmd_complexity(args) -> int:
    p, est, ends = _complexity_report(
        args, "complexity needs d >= 3 (counts vanish beyond e=1 otherwise)"
    )
    if args.format == "json":
        print(render_json(ends))
    else:
        print(f"# p={p} d={args.d} tol={args.tol}")
        print(f"growth rate in [{ends['rho_lo']}, {ends['rho_hi']}]"
              f" ({est.iterations} iterations, converged={est.converged})")
        print(f"complexity  in [{ends['cxf_lo']}, {ends['cxf_hi']}]"
              f"  (base-{p} log; bound {args.d - 1})")
    return 0


def _cmd_segre(args) -> int:
    p, _, ends = _complexity_report(args, "segre reports need d >= 3")
    closed = known_complexity_expression(p, args.d)
    if args.format == "json":
        print(render_json({"p": int(p), "d": args.d, "cxf_lo": ends["cxf_lo"],
                           "cxf_hi": ends["cxf_hi"], "closed_form": closed}))
    else:
        print(f"# segre p={p} d={args.d} tol={args.tol}")
        print(f"complexity in [{ends['cxf_lo']}, {ends['cxf_hi']}]")
        print(f"closed form: {closed or 'none known'}")
        print(f"growth rate in [{ends['rho_lo']}, {ends['rho_hi']}]")
    return 0


# --- verify -----------------------------------------------------------------

def _faulted(system: TransferSystem) -> TransferSystem:
    p, d, ((u, *row), *rows), x0, weights = system  # U[0][0] + 1
    return TransferSystem(p, d, ((u + 1, *row), *rows), x0, weights)


def _cmd_verify(args) -> int:
    guards = _guards(args)
    points = bound_checks = 0
    for p, d_range, emax in _VERIFY_GRID:
        for d in d_range:
            streams = {engine: terms(p, d, emax, guards.get(engine))
                       for engine, terms in ENGINE_TERMS.items()
                       if engine != "closed" or d == 3}
            if args.inject_fault and d >= 3:
                streams["transfer"] = iter_counts(
                    p, d, emax, _faulted(build_system(p, d)), number=Decimal)
            for e, counts in enumerate(islice(zip(*streams.values()), 1, None), 1):
                values = dict(zip(streams, counts))
                c = values["enumerate"]
                if any(v != c for v in values.values()):
                    detail = " ".join(f"{k}={v}" for k, v in sorted(values.items()))
                    print(f"MISMATCH p={p} d={d} e={e}: {detail}")
                    return 3
                upper = composition_count(p**e - 1, d)
                if c > upper:
                    print(f"BOUND VIOLATION p={p} d={d} e={e}: c={c} > {upper}")
                    return 3
                bound_checks += 1
                if d >= 3 and e >= 2:
                    lb = lower_bound(p, d, e)
                    if lb > c or (d == 3 and lb != c):
                        print(f"BOUND VIOLATION p={p} d={d} e={e}: lower={lb} c={c}")
                        return 3
                    bound_checks += 1
                points += 1
                if not args.quiet:
                    engines = "/".join(sorted(values))
                    print(f"ok p={p} d={d} e={e} c={c} [{engines}]")
    print(f"VERIFY PASS: {points} grid points, {bound_checks} bound checks")
    return 0


# --- twisted ----------------------------------------------------------------

def _cmd_twisted_demo(args) -> int:
    p = Prime(args.p)
    if args.trunc < 1:
        raise ValueError("N must be >= 1")
    if args.r < 1:
        raise ValueError("r must be >= 1")
    ring = QuotientRing(p, args.trunc)
    e0 = min_kill_degree(ring)
    if args.e < e0:
        raise ValueError(f"need e >= {e0} so that p^e >= N")
    rng = random.Random(args.seed)
    op = random_operator(ring, args.r, args.e, rng)
    print(f"# twisted demo: p={p} N={args.trunc} r={args.r} e={args.e} seed={args.seed}")
    print(f"ring F_{p}[x]/(x^{args.trunc}), min twist with p^e >= N: e0={e0}")
    print(f"A (matrix of the degree-{args.e} operator):")
    for row in op.rows:
        print("  [" + ", ".join(str(v) for v in row) + "]")
    ok = factorization_check(op.rows, args.e, e0)
    print(f"(A,{args.e}) == (A,{e0}) o (I,{args.e - e0}): {'PASS' if ok else 'FAIL'}")
    collapsed = bracket(op.rows, e0)
    consts = all(
        v.coeffs[1:] == (0,) * (args.trunc - 1) for row in collapsed for v in row
    )
    print(f"A^[p^{e0}] collapses to constant terms: {'PASS' if consts else 'FAIL'}")
    if (parts := _identity_chain(args.e - e0, e0)) is not None:
        k, c = parts
        print(f"identity chain: (I,{args.e - e0}) == (I,{e0})^o{k} o (I,{c}): "
              f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok and consts else 3


# --- parser -----------------------------------------------------------------

@cache
def build_parser() -> _Parser:
    """The ``frobcx`` argument parser, built on the first call of a process.

    Every later call, and so every ``main`` call, returns the same parser.
    Sharing it carries no state from one parse to the next: no argument has
    a mutable default; the ``--max-*`` guards default to None and their
    ``FROBCX_MAX_*`` variables are read by ``_guard_value`` when the command
    runs; and ``_Parser.error`` raises instead of recording anything.
    """
    parser = _Parser(prog="frobcx", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    pd = _Parser(add_help=False)  # --p and --d, for every command that takes both
    pd.add_argument("--p", type=int, required=True, help="prime characteristic")
    pd.add_argument("--d", type=int, required=True, help="number of variables")

    q = sub.add_parser("mdpoly", parents=[pd], help="coefficient table of (1+t+...+t^(p-1))^d")
    q.add_argument("--format", choices=("json", "table"), default="json")
    q.set_defaults(func=_cmd_mdpoly)

    q = sub.add_parser("sequence", parents=[pd], help="generator counts c_e and sums k_e")
    q.add_argument("--emax", type=int, required=True)
    q.add_argument("--engine", choices=ENGINES, default="auto")
    q.add_argument("--format", choices=FORMATS, default="table")
    q.add_argument("--max-compositions", type=int, default=None)
    q.add_argument("--max-carryvectors", type=int, default=None)
    q.set_defaults(func=_cmd_sequence)

    for name, func, text in (
            ("complexity", _cmd_complexity, "certified growth and complexity intervals"),
            ("segre", _cmd_segre, "complexity with closed form where known")):
        q = sub.add_parser(name, parents=[pd], help=text)
        q.add_argument("--tol", default="1e-9", help="interval width target")
        q.add_argument("--format", choices=("json", "table"), default="json")
        q.set_defaults(func=func)

    q = sub.add_parser("verify", help="cross-check engines and bounds on a grid")
    q.add_argument("--quiet", action="store_true", help="summary line only")
    q.add_argument("--max-compositions", type=int, default=None)
    q.add_argument("--inject-fault", action="store_true",
                   help="perturb the transfer matrix to prove mismatches are caught")
    q.set_defaults(func=_cmd_verify)

    q = sub.add_parser("twisted", help="twisted operator demonstrations")
    tsub = q.add_subparsers(dest="twisted_command", required=True)
    t = tsub.add_parser("demo", help="factor a random operator through the identity")
    t.add_argument("--p", type=int, default=2)
    t.add_argument("--N", dest="trunc", type=int, default=4, help="truncation order")
    t.add_argument("--r", type=int, default=2, help="matrix size")
    t.add_argument("--e", type=int, default=6, help="operator twist degree")
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(func=_cmd_twisted_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    limit = sys.get_int_max_str_digits()
    try:
        args = build_parser().parse_args(argv)
        # counts and decimal endpoints may pass Python's int/str digit limit;
        # it is lifted for the command only, after argument parsing.  Decimal
        # counts and sums, taken as lines are made, would round outside EXACT
        sys.set_int_max_str_digits(0)
        with localcontext(EXACT):
            return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Stopped as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # reader gone: devnull keeps the flush at exit from raising
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
