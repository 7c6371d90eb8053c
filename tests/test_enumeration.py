import pytest
from hypothesis import assume, given, settings, strategies as st

from frobcx.basep import ExponentVector, carry_sequence
from frobcx.enumeration import (
    composition_count,
    compositions,
    count_basis_carryvectors,
    count_basis_enumeration,
    is_basis_monomial,
)
from frobcx.errors import GuardExceeded
from frobcx.transfer import complexity_term

# brute-forced with a standalone per-monomial checker before this package
# existed; the three engines reproduced every value independently
FROZEN_COUNTS = {
    (2, 3, 2): 1,
    (2, 3, 3): 3,
    (2, 3, 4): 9,
    (2, 3, 5): 27,
    (2, 4, 2): 4,
    (2, 4, 3): 24,
    (2, 4, 4): 160,
    (2, 4, 5): 1120,
    (2, 5, 2): 10,
    (2, 5, 3): 105,
    (2, 5, 4): 1351,
    (3, 3, 2): 9,
    (3, 3, 3): 54,
    (3, 4, 2): 65,
    (3, 4, 3): 1354,
    (3, 5, 2): 270,
    (3, 5, 3): 15930,
    (5, 3, 2): 100,
    (5, 3, 3): 1500,
    (5, 4, 2): 1700,
    (5, 4, 3): 171500,
}


def naive_count(p, d, e):
    total = 0
    for parts in compositions(p**e - 1, d):
        v = ExponentVector(parts, p, e)
        if is_basis_monomial(v):
            total += 1
    return total


def test_compositions_cover_everything_once():
    seen = list(compositions(4, 3))
    assert len(seen) == len(set(seen)) == composition_count(4, 3) == 15
    assert all(sum(c) == 4 and len(c) == 3 for c in seen)
    assert list(compositions(0, 2)) == [(0, 0)]
    assert list(compositions(3, 1)) == [(3,)]


def test_composition_count_validates():
    with pytest.raises(ValueError):
        composition_count(-1, 2)
    with pytest.raises(ValueError):
        composition_count(3, 0)


def test_frozen_counts_all_engines():
    for (p, d, e), expected in FROZEN_COUNTS.items():
        assert count_basis_enumeration(p, d, e) == expected
        assert count_basis_carryvectors(p, d, e) == expected


def test_fast_counter_matches_naive_walk():
    for p, d, e in [(2, 2, 3), (2, 3, 3), (2, 4, 3), (2, 5, 2), (3, 3, 2),
                    (3, 4, 2), (5, 3, 2), (2, 1, 2), (3, 1, 1), (2, 6, 2),
                    # d = 3: the last free coordinate spans p periods of p^(e-1)
                    (5, 3, 3), (7, 3, 2), (3, 3, 4),
                    # 65% and 35% of prefixes reach every cap p^e1
                    (2, 10, 3), (2, 6, 4),
                    # the e = 1, d = 1 and d = 2 branches
                    (3, 4, 1), (5, 2, 1), (3, 1, 3), (5, 2, 2)]:
        assert count_basis_enumeration(p, d, e) == naive_count(p, d, e), (p, d, e)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=6),
)
def test_counter_matches_naive_walk_on_small_cells(p, d, e):
    assume(composition_count(p**e - 1, d) <= 2 * 10**4)
    assert count_basis_enumeration(p, d, e) == naive_count(p, d, e)


def test_deep_cell_counts_without_recursion():
    # 99,491,141 compositions, just under the default guard, 839 prefix steps
    assert count_basis_enumeration(2, 841, 2) == complexity_term(2, 841, 2)


def test_level_one_counts_every_composition():
    for p, d in [(2, 1), (2, 4), (3, 3), (5, 2), (5, 6)]:
        assert count_basis_enumeration(p, d, 1) == composition_count(p - 1, d)


def test_small_d_vanishes_beyond_level_one():
    for p in (2, 3, 5):
        for d in (1, 2):
            for e in (2, 3, 4):
                assert count_basis_enumeration(p, d, e) == 0


def test_guards_trip_before_iterating():
    with pytest.raises(GuardExceeded) as info:
        count_basis_enumeration(2, 6, 6, max_compositions=10**6)
    assert info.value.needed == composition_count(2**6 - 1, 6)
    with pytest.raises(GuardExceeded) as info:
        count_basis_enumeration(2, 841, 2, max_compositions=99_491_140)
    assert info.value.needed == 99_491_141
    with pytest.raises(GuardExceeded) as info:
        count_basis_carryvectors(2, 12, 9, max_carryvectors=10**7)
    assert info.value.needed == 10**8


def test_carryvectors_validates_domain():
    with pytest.raises(ValueError):
        count_basis_carryvectors(2, 2, 3)
    with pytest.raises(ValueError):
        count_basis_carryvectors(2, 4, 1)


def composition_strategy(p, e, d):
    total = p**e - 1
    return st.lists(
        st.integers(min_value=0, max_value=total), min_size=d - 1, max_size=d - 1
    ).map(lambda cuts: parts_from_cuts(sorted(cuts), total))


def parts_from_cuts(cuts, total):
    edges = [0] + cuts + [total]
    return tuple(edges[i + 1] - edges[i] for i in range(len(edges) - 1))


@settings(max_examples=150)
@given(st.data())
def test_variants_agree(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    e = data.draw(st.integers(min_value=1, max_value=4))
    d = data.draw(st.integers(min_value=1, max_value=5))
    v = ExponentVector(data.draw(composition_strategy(p, e, d)), p, e)
    # is_basis_monomial sums the first d-1 coordinates; summing all d agrees
    all_d = all(sum(x % p**e1 for x in v.a) >= p**e1 for e1 in range(1, e))
    assert is_basis_monomial(v) == all_d


@settings(max_examples=150)
@given(st.data())
def test_membership_equals_positive_interior_carries(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    e = data.draw(st.integers(min_value=1, max_value=4))
    d = data.draw(st.integers(min_value=1, max_value=5))
    v = ExponentVector(data.draw(composition_strategy(p, e, d)), p, e)
    carries = carry_sequence(v)
    expected = all(carries[n] > 0 for n in range(e - 1))
    assert is_basis_monomial(v) == expected


def test_boundary_probes():
    # concentrating the whole degree in the last coordinate fails (e >= 2):
    # the first d-1 truncations are all zero
    v = ExponentVector((0, 0, 15), 2, 4)
    assert not is_basis_monomial(v)
    # two coordinates of all-ones digits force every interior carry
    v = ExponentVector((7, 7, 1), 2, 4)
    assert is_basis_monomial(v)
