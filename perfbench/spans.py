"""Spans and work counters recorded from outside the frobcx package.

``Tracer`` wraps the public functions listed in ``TARGETS`` and patches
each wrapper into its defining module and into every frobcx module that
imported the function by name (``cli.perron_interval``,
``transfer.build_table``, ``spectral.build_system``, ...), so nested
calls are seen.  Spans live in memory as ``(name, start, end, parent,
op)`` tuples; counters are kept per op.  Counters come only from call
arguments and return values, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from math import comb
from time import perf_counter


def _bits(*values) -> int:
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)


def _enumeration(a, r):
    p, d, e = a["p"], a["d"], a["e"]
    return {"enumeration.compositions": comb(p**e - 1 + d - 1, d - 1),
            "enumeration.accepted": r}


def _perron(a, r):
    return {"spectral.perron_interval.calls": 1,
            "spectral.perron_interval.iterations": r.iterations,
            "spectral.perron_interval.converged": int(r.converged),
            "spectral.endpoint_bits_max": _bits(r.lo, r.hi)}


def _sequence(a, r):
    return {"transfer.steps": max(a["emax"] - 2, 0) if a["d"] >= 3 else 0,
            "transfer.count_bits_max": r.c[-1].bit_length()}


def _term(a, r):
    return {"transfer.steps": max(a["e"] - 2, 0) if a["d"] >= 3 else 0,
            "transfer.count_bits_max": r.bit_length()}


# module -> {function: counter hook or None}.  A hook maps the bound
# arguments and the return value to counters.
TARGETS = {
    "poincare": {"build_table": lambda a, r: {"poincare.build_table.calls": 1}},
    "enumeration": {
        "count_basis_enumeration": _enumeration,
        "count_basis_carryvectors": lambda a, r: {
            "enumeration.carryvectors": (a["d"] - 2) ** (a["e"] - 1)},
    },
    "closedform": {
        "lower_bound": lambda a, r: {"closedform.lower_bound.terms": a["p"] ** a["e"]},
        "closed_form_d3": None,
    },
    "transfer": {
        "build_system": None,
        "complexity_term": _term,
        "complexity_sequence": _sequence,
    },
    "spectral": {
        "char_poly": lambda a, r: {"spectral.char_poly.calls": 1,
                                   "spectral.char_poly.dim_max": len(a["matrix"])},
        "perron_interval": _perron,
        "log_of_interval": lambda a, r: {"spectral.endpoint_bits_max": _bits(r.lo, r.hi)},
        "log2_interval": lambda a, r: {"spectral.log2_interval.calls": 1},
    },
    "twistedop": {
        "compose": lambda a, r: {"twistedop.compose.calls": 1},
        "factorization_check": None,
    },
    "cli": {"main": None, "decimal_str": None},
}

# Counted but given no span, so that log_of_interval keeps the time of the
# logarithms it computes as its own self time.
COUNT_ONLY = {"spectral.log2_interval"}


class Tracer:
    """Spans and per-op counters for one worker process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[int, dict[str, int]] = defaultdict(dict)
        self._patches = []
        for mod_name, funcs in TARGETS.items():
            module = sys.modules[f"frobcx.{mod_name}"]
            for fname, hook in funcs.items():
                original = getattr(module, fname)
                wrapper = self.wrap(f"{mod_name}.{fname}", original, hook)
                for other in [m for n, m in sys.modules.items()
                              if n == "frobcx" or n.startswith("frobcx.")]:
                    for attr, value in vars(other).items():
                        if value is original:
                            self._patches.append((other, attr, original, wrapper))

    def wrap(self, name: str, fn, hook):
        """A wrapper that records a span (unless count-only) and counters."""
        signature = inspect.signature(fn)
        spans, stack = self.spans, self.stack
        timed = name not in COUNT_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if timed:
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[index] = (name, start, end, parent, self.op)
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.count(hook(bound, result))
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def count(self, values: dict[str, int]) -> None:
        mine = self.counters[self.op]
        for key, value in values.items():
            if key.endswith("_max"):
                mine[key] = max(mine.get(key, 0), value)
            else:
                mine[key] = mine.get(key, 0) + value

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def run_op(self, op: int, fn):
        """Run ``fn`` traced as op ``op`` under a root span named ``op``."""
        self.op = op
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        self.install()
        start = perf_counter()
        try:
            return fn()
        finally:
            end = perf_counter()
            self.uninstall()
            self.stack.pop()
            self.spans[index] = ("op", start, end, -1, op)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out
