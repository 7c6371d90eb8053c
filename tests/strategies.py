"""Hypothesis strategies and helpers shared by the test modules."""

from math import comb

from hypothesis import strategies as st

from frobcx.basep import Prime


class Unpowered(Prime):
    """A prime that refuses to be raised to a power, to show none is formed."""

    def __pow__(self, e):
        raise AssertionError(f"p**{e} formed")


def composition_strategy(p, e, d):
    """Random composition of p**e - 1 into d parts via sorted cut points."""
    total = p**e - 1
    return st.lists(
        st.integers(min_value=0, max_value=total), min_size=d - 1, max_size=d - 1
    ).map(lambda cuts: cuts_to_parts(sorted(cuts), total))


def cuts_to_parts(cuts, total):
    edges = [0] + cuts + [total]
    return tuple(edges[i + 1] - edges[i] for i in range(len(edges) - 1))


def digit_count(p, d, m):
    """M_d(m), the ways d digits in 0..p-1 sum to m, by inclusion-exclusion.

    It counts over the digits forced to p or more, for any integer p >= 2,
    prime or not, and builds no table.
    """
    if m < 0:
        return 0
    return sum((-1) ** j * comb(d, j) * comb(m - j * p + d - 1, d - 1)
               for j in range(min(d, m // p) + 1))
