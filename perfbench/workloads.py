"""Seeded op lists for the five benchmark workloads.

Each workload is an endless sequence of blocks.  A block visits every
stratum of the workload's input space once, at a seeded point near the
stratum's centre and in seeded order, so any whole number of blocks has
nearly the same mix of cheap and costly ops whatever the seed; runs stop
at a block boundary.  crosscheck, certify, sequence and far-term draw
their block once per run and then repeat it in a new seeded order, so
every block of a run holds the same requests, and run.py checks each
request's output in full only once (a sequence check costs about 0.1 s).
interactive draws a new block each time: its runs hold thousands of ops.  Discrete choices that are not part of a block's
design come from decks that are reshuffled only when exhausted.

An op is a dict.  ``run`` says how the worker executes it: ``cli`` calls
``frobcx.cli.main(argv)``, ``crosscheck`` and ``far_term`` call library
functions.  ``check`` names the checker function; the remaining keys are
the inputs the checker needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, log10
from typing import Callable, Iterator

import checker


class Deck:
    """Draws from a seeded shuffle of ``items``, reshuffling when empty."""

    def __init__(self, rng: random.Random, items) -> None:
        self.rng, self.items, self.left = rng, list(items), []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


JITTER = 0.1  # share of a band's width that a seeded point may stray from its centre


def band(rng: random.Random, lo: float, hi: float, n: int, i: int) -> float:
    """A seeded point near the centre of band i (mod n) of n equal bands of [lo, hi].

    The jitter is small on purpose: op costs grow steeply with these
    inputs, and a run's timings are steady only if every run draws nearly
    the same mix of costs.
    """
    return lo + (i % n + 0.5 + JITTER * (rng.random() - 0.5)) * (hi - lo) / n


def reshuffled(rng: random.Random, state: dict, draw: Callable[[], list]) -> list:
    """The run's one draw of ops (made on the first call), in a new seeded order."""
    if "ops" not in state:
        state["ops"] = draw()
    ops = state["ops"][:]
    rng.shuffle(ops)
    return ops


def cli_op(check: str, argv, **inputs) -> dict:
    return {"run": "cli", "check": check, "argv": [str(a) for a in argv], **inputs}


# --- crosscheck ----------------------------------------------------------------

# Cells visiting 10^5..10^6 compositions.  d <= 9 keeps each cell under
# about a second: wide cells such as (2, 21, 3) spend up to 4 s in the
# enumeration's prefix bookkeeping and would leave too few ops per run.
CROSSCHECK_CELLS = sorted(
    (comb(p**e - 1 + d - 1, d - 1), p, d, e)
    for p in (2, 3, 5, 7) for d in range(3, 10) for e in range(2, 12)
    if 10**5 <= comb(p**e - 1 + d - 1, d - 1) <= 10**6
)


def crosscheck_block(rng, state, over_limit):
    cells = CROSSCHECK_CELLS[:]
    rng.shuffle(cells)
    return [{"run": "crosscheck", "check": "crosscheck", "p": p, "d": d, "e": e}
            for _, p, d, e in cells]


# --- certify -------------------------------------------------------------------

NARROW_PAIRS = [(p, d) for p in (2, 3, 5) for d in range(4, 9)]
# Fixed points of d in 24..40: char_poly's cost grows like d^4, so a d drawn
# at random would move the tail more than the machine's noise does.
WIDE_DS = [24, 27, 30, 33, 36, 40]


def _interval_op(rng, p, d, exponent):
    command = rng.choice(("complexity", "segre"))
    tol = f"1e-{round(exponent)}"
    return cli_op("interval", [command, "--p", p, "--d", d, "--tol", tol, "--format", "json"],
                  command=command, p=p, d=d, tol=tol)


def certify_block(rng, state, over_limit):
    # every narrow pair and every wide d once per block, each with its own
    # tol band, so that tol bands are spread evenly over p and d
    def draw():
        ops = [_interval_op(rng, p, d, band(rng, 100, 300, 3, p + d))
               for p, d in NARROW_PAIRS]
        return ops + [_interval_op(rng, 2, d, band(rng, 9, 20, 3, i))
                      for i, d in enumerate(WIDE_DS)]
    return reshuffled(rng, state, draw)


# --- sequence ------------------------------------------------------------------

SEQUENCE_PAIRS = [(2, 3), (2, 4), (2, 6), (3, 5), (5, 4)]
FORMATS = ("csv", "json", "table")


def emax_for_digits(p: int, d: int, digits: float) -> int:
    """Level whose count has about ``digits`` decimal digits."""
    return max(2, round(digits / log10(float(checker.radius(p, d, 20)))))


def _sequence_op(p, d, digits, fmt):
    emax = emax_for_digits(p, d, digits)
    return cli_op("sequence", ["sequence", "--p", p, "--d", d, "--emax", emax,
                               "--engine", "transfer", "--format", fmt],
                  p=p, d=d, emax=emax, format=fmt, engine="transfer")


def sequence_block(rng, state, over_limit):
    # every (pair, format) once per block, each with its own digit band
    def draw():
        ops = [_sequence_op(p, d, band(rng, 500, 4000, 15, i + 5 * ((i + j) % 3)), fmt)
               for i, (p, d) in enumerate(SEQUENCE_PAIRS) for j, fmt in enumerate(FORMATS)]
        if over_limit:
            # one request in 16 prints counts past Python's 4,300-digit limit
            p, d = rng.choice(SEQUENCE_PAIRS)
            ops.append(_sequence_op(p, d, rng.uniform(4300, 6000), rng.choice(FORMATS)))
        return ops
    opening = not state
    ops = reshuffled(rng, state, draw)
    if opening:
        # a run opens with its largest request, 4,000 digits of (2, 3) as JSON,
        # in a fresh heap, so that the peak memory does not depend on what ran
        # before it
        ops.insert(0, _sequence_op(2, 3, 4000, "json"))
    return ops


# --- far-term ------------------------------------------------------------------

FAR_PAIRS = [(2, 5), (2, 6)]


def far_term_block(rng, state, over_limit):
    # eight e strata; the two pairs alternate over them
    return reshuffled(rng, state, lambda: [
        {"run": "far_term", "check": "far_term", "p": FAR_PAIRS[i % 2][0],
         "d": FAR_PAIRS[i % 2][1], "e": round(band(rng, 5000, 20000, 8, i))}
        for i in range(8)])


# --- interactive ---------------------------------------------------------------

# (p, d, emax) small enough that --engine auto enumerates, and quickly.
AUTO_CELLS = [(p, d, emax) for p in (2, 3, 5) for d in range(1, 7) for emax in range(1, 7)
              if comb(p**emax - 1 + d - 1, d - 1) <= 20000]

INVALID = [
    ["complexity", "--p", "4", "--d", "5"],
    ["complexity", "--p", "2", "--d", "2"],
    ["segre", "--p", "3", "--d", "5", "--tol", "0"],
    ["complexity", "--p", "2", "--d", "5", "--tol", "abc"],
    ["mdpoly", "--p", "9", "--d", "3"],
    ["sequence", "--p", "2", "--d", "4", "--emax", "-1"],
    ["sequence", "--p", "1", "--d", "3", "--emax", "3"],
    ["twisted", "demo", "--p", "2", "--N", "8", "--e", "1"],
]


MDPOLY_CELLS = [(p, d) for p in (2, 3, 5, 7, 11) for d in range(1, 13)]
# (p, d, tol band): three tol bands over 1e-3..1e-9
INTERVAL_CELLS = [(p, d, i) for p in (2, 3, 5, 7) for d in range(3, 9) for i in range(3)]
# (p, N, r, twist beyond the smallest one that kills x)
TWISTED_CELLS = [(p, n, r, extra) for p in (2, 3) for n in range(2, 9) for r in (1, 2, 3)
                 for extra in range(7)]


def _twisted_op(rng, p, n, r, extra):
    e, seed = next(k for k in range(8) if p**k >= n) + extra, rng.randrange(1000)
    return cli_op("twisted", ["twisted", "demo", "--p", p, "--N", n, "--r", r,
                              "--e", e, "--seed", seed], p=p, N=n, r=r, e=e, seed=seed)


def interactive_block(rng, state, over_limit):
    # every kind of request in fixed numbers; the inputs of each kind come
    # from a deck of all its cells, so the rare costly ones (complexity at
    # p=7, d=8, or a 3x3 twisted operator) recur equally often in every run
    decks = {name: state.setdefault(name, Deck(rng, cells)) for name, cells in (
        ("mdpoly", MDPOLY_CELLS), ("auto", AUTO_CELLS), ("formats", FORMATS),
        ("interval", INTERVAL_CELLS), ("twisted", TWISTED_CELLS), ("invalid", INVALID))}
    ops = []
    for _ in range(4):
        p, d = decks["mdpoly"].draw()
        ops.append(cli_op("mdpoly", ["mdpoly", "--p", p, "--d", d], p=p, d=d))
    for _ in range(5):
        (p, d, emax), fmt = decks["auto"].draw(), decks["formats"].draw()
        ops.append(cli_op("sequence", ["sequence", "--p", p, "--d", d, "--emax", emax,
                                       "--format", fmt],
                          p=p, d=d, emax=emax, format=fmt, engine="enumerate"))
    for command in ("complexity", "segre") * 3:
        p, d, i = decks["interval"].draw()
        tol = f"1e-{round(band(rng, 3, 9, 3, i))}"
        ops.append(cli_op("interval", [command, "--p", p, "--d", d, "--tol", tol],
                          command=command, p=p, d=d, tol=tol))
    ops += [_twisted_op(rng, *decks["twisted"].draw()) for _ in range(3)]
    ops += [cli_op("refusal", decks["invalid"].draw(), exit=1) for _ in range(2)]
    rng.shuffle(ops)
    return ops


# --- table ---------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    block: Callable
    tail_pct: int      # fixed, with >= 10 ops beyond it in every seed-baseline run
    trace_blocks: int  # blocks in a traced run, fixed so its counters repeat exactly


WORKLOADS = {
    "crosscheck": Workload(crosscheck_block, 75, 1),
    "certify": Workload(certify_block, 88, 1),
    "sequence": Workload(sequence_block, 75, 1),
    "far-term": Workload(far_term_block, 68, 1),
    "interactive": Workload(interactive_block, 99, 40),
}


def blocks(name: str, seed: int, over_limit: bool = False) -> Iterator[list[dict]]:
    """The endless block sequence of workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    state: dict = {}  # decks and flags kept from one block to the next
    make = WORKLOADS[name].block
    while True:
        yield make(rng, state, over_limit)
