import pytest
from hypothesis import given, settings, strategies as st

from frobcx.basep import ExponentVector, Prime, carry_sequence, digits
from strategies import composition_strategy

PRIMES = [2, 3, 5, 7, 11, 13]


def test_prime_accepts_primes():
    for p in PRIMES + [2, 97, 101]:
        assert Prime(p) == p
        assert isinstance(Prime(p), int)


def test_prime_of_a_prime_is_that_prime():
    # no second trial division, which takes about 0.1 s for this q
    q = Prime(1000000000039)
    assert Prime(q) is q


def test_prime_rejects_composites_and_small():
    for bad in [-3, 0, 1, 4, 6, 9, 15, 100]:
        with pytest.raises(ValueError):
            Prime(bad)


def test_prime_refuses_a_non_integer():
    # not truncated to the prime 7
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        Prime(7.9)


def test_digits_frozen_examples():
    assert tuple(digits(11, 2, 4)) == (1, 1, 0, 1)
    assert tuple(digits(11, 3, 3)) == (2, 0, 1)
    assert tuple(digits(0, 5, 3)) == (0, 0, 0)
    assert digits(24, 5, 2) == (4, 4)


def test_digits_rejects_overflow_and_negative():
    with pytest.raises(ValueError):
        digits(8, 2, 3)  # needs 4 digits
    with pytest.raises(ValueError):
        digits(-1, 2, 3)


@settings(max_examples=100)
@given(
    st.sampled_from(PRIMES),
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=0, max_value=8),
)
def test_digits_value_round_trip(p, a, extra):
    length = len(digits_needed(a, p)) + extra
    dv = digits(a, p, length)
    assert all(0 <= x < p for x in dv)
    assert sum(x * p**n for n, x in enumerate(dv)) == a
    assert len(dv) == length


def digits_needed(a, p):
    out = []
    while True:
        out.append(a % p)
        a //= p
        if a == 0:
            return out


def test_exponent_vector_validates_degree():
    ExponentVector((1, 1, 1), 2, 2)  # sums to 3 = 2^2 - 1
    with pytest.raises(ValueError):
        ExponentVector((1, 1), 2, 2)
    with pytest.raises(ValueError):
        ExponentVector((4, -1), 2, 2)
    with pytest.raises(ValueError):
        ExponentVector((3,), 2, 0)


def test_carry_sequence_frozen_examples():
    assert carry_sequence(ExponentVector((1, 1, 1), 2, 2)) == (1, 0)
    # single exponent: no carries at all
    assert carry_sequence(ExponentVector((26,), 3, 3)) == (0, 0, 0)
    # maximal first coordinate leaves nothing to carry
    assert carry_sequence(ExponentVector((15, 0, 0), 2, 4)) == (0, 0, 0, 0)


@settings(max_examples=100)
@given(st.data())
def test_carry_sequence_column_identity(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    e = data.draw(st.integers(min_value=1, max_value=4))
    d = data.draw(st.integers(min_value=1, max_value=5))
    parts = data.draw(composition_strategy(p, e, d))
    v = ExponentVector(parts, p, e)
    carries = carry_sequence(v)
    assert len(carries) == e
    assert carries[-1] == 0
    rows = [digits(a, p, e) for a in parts]
    prev = 0
    for n in range(e):
        col = sum(r[n] for r in rows)
        # column digits plus carry-in equal carry-out * p + (p - 1)
        assert col + prev == carries[n] * p + (p - 1)
        prev = carries[n]
