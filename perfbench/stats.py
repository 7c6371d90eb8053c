"""Summary statistics shared by run.py and steady.py."""

from __future__ import annotations

import statistics
from math import ceil, exp, inf, log, log1p


def harrell_davis(values, p: float) -> float:
    """The p-quantile of ``values`` by the Harrell-Davis estimator.

    A weighted mean of all sorted values.  The i-th value's weight is the
    Beta(p(n+1), (1-p)(n+1)) density at the midpoint of the i-th of n
    equal rank intervals, normalised so the weights sum to one; the exact
    estimator uses that distribution's share of the interval, which this
    approaches closely.  Unlike a single order statistic, the estimate
    does not jump from one request's latency to the next when noise
    reorders requests of similar cost.  Every value carries weight, so
    one failed op (+inf) makes the quantile +inf.
    """
    ordered = sorted(values)
    n = len(ordered)
    if ordered[-1] == inf:
        return inf
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * log(t) + (b - 1) * log1p(-t) for t in ((i + 0.5) / n for i in range(n))]
    top = max(logs)
    weights = [exp(x - top) for x in logs]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile of n samples with at least ten samples above it."""
    for pct in range(99, 0, -1):
        if n - ceil(pct / 100 * n) >= 10:
            return pct
    return None


def spread(values) -> float:
    """Distance between the first and third quartiles, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
