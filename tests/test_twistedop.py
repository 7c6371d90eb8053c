import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from frobcx.twistedop import (
    QElem,
    QuotientRing,
    TwistedOperator,
    _identity_chain,
    bracket,
    compose,
    factorization_check,
    identity_operator,
    min_kill_degree,
    random_operator,
)


def ring24():
    return QuotientRing(2, 4)


def test_element_construction_and_reduction():
    r = QuotientRing(3, 3)
    a = r.element([4, -1, 5, 99, 7])  # reduced mod 3, truncated at x^3
    assert a.coeffs == (1, 2, 2)
    assert r.zero().is_zero()
    assert r.one().coeffs == (1, 0, 0)
    assert r.gen().coeffs == (0, 1, 0)
    assert str(r.element([1, 2, 0])) == "1 + 2*x"
    assert str(r.zero()) == "0"


def test_ring_validation():
    with pytest.raises(ValueError):
        QuotientRing(4, 3)
    with pytest.raises(ValueError):
        QuotientRing(2, 0)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        QuotientRing(2, 3.5)


def test_operator_validation():
    r = ring24()
    one, zero = r.one(), r.zero()
    for rows, message in (((), "matrix must be nonempty"),
                          (((one, zero), (zero,)), "matrix must be square"),
                          (((one, zero),), "matrix must be square")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TwistedOperator(rows, 0)
    with pytest.raises(ValueError, match="^twist degree must be >= 0$"):
        TwistedOperator(((one,),), -1)
    with pytest.raises(ValueError, match="^size must be >= 1$"):
        identity_operator(r, 0)
    # not an operator of degree 1.5
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        identity_operator(r, 2, 1.5)


def test_arithmetic_truncates():
    r = ring24()
    x = r.gen()
    x2 = x * x
    assert x2.coeffs == (0, 0, 1, 0)
    assert (x2 * x2).is_zero()  # x^4 = 0
    assert (x + x).is_zero()  # characteristic 2
    one = r.one()
    assert ((one + x) * (one + x)).coeffs == (1, 0, 1, 0)


def test_element_construction_validates():
    r = ring24()
    with pytest.raises(ValueError):
        QElem(r, (1, 0, 0))  # length 3 in a ring with n = 4
    with pytest.raises(ValueError):
        QElem(r, (1, 0, 2, 0))  # 2 is not reduced mod 2
    with pytest.raises(ValueError):
        QElem(r, (0, -1, 0, 0))
    # coefficients are integers: 1.5 is neither reduced nor printed
    with pytest.raises(TypeError):
        QElem(r, (1.5, 0, 0, 0))
    with pytest.raises(TypeError):
        r.element([1.5])


def test_operator_rejects_entries_from_different_rings():
    a, b = ring24().one(), QuotientRing(2, 5).one()
    with pytest.raises(ValueError):
        TwistedOperator(((a, a), (a, b)), 0)
    # an equal ring built separately is the same ring, though not the same object
    assert TwistedOperator(((a, a), (a, ring24().one())), 0).ring == a.ring


def test_mixed_ring_arithmetic_rejected():
    a = ring24().one()
    b = QuotientRing(2, 5).one()
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_an_integer_times_an_element_is_refused():
    # an element is a named tuple, and a tuple's 2 * a would be (ring, coeffs)
    # twice over, not a ring element
    with pytest.raises(TypeError):
        2 * ring24().gen()


def test_frobenius_spreads_coefficients():
    r = QuotientRing(2, 8)
    f = r.element([1, 1, 1])  # 1 + x + x^2
    assert f.frobenius(1).coeffs == (1, 0, 1, 0, 1, 0, 0, 0)
    assert f.frobenius(2).coeffs == (1, 0, 0, 0, 1, 0, 0, 0)
    assert f.frobenius(3).coeffs == (1, 0, 0, 0, 0, 0, 0, 0)
    assert f.frobenius(0) is f
    with pytest.raises(ValueError):
        f.frobenius(-1)


def test_frobenius_is_the_power_map():
    rng = random.Random(7)
    for p, n in [(2, 4), (3, 3), (5, 2)]:
        r = QuotientRing(p, n)
        for _ in range(25):
            a = r.random_element(rng)
            power = r.one()
            for _ in range(p):
                power = power * a
            assert a.frobenius(1) == power


def test_deep_twists_keep_only_constant_terms():
    # p^e is capped at p^n, so these return at once instead of building
    # a 10^18-digit power
    ring = QuotientRing(3, 4)
    rng = random.Random(5)
    rows = random_operator(ring, 2, 0, rng).rows
    deep = bracket(rows, 10**18)
    for row, deep_row in zip(rows, deep):
        for v, w in zip(row, deep_row):
            assert w.coeffs == (v.coeffs[0], 0, 0, 0)
    op = random_operator(ring, 2, 3, rng)
    out = compose(identity_operator(ring, 2, 10**18), op)
    assert out.degree == 10**18 + op.degree
    assert out.rows == bracket(op.rows, 10**18)


def test_min_kill_degree():
    assert min_kill_degree(QuotientRing(2, 4)) == 2
    assert min_kill_degree(QuotientRing(2, 5)) == 3
    assert min_kill_degree(QuotientRing(3, 3)) == 1
    assert min_kill_degree(QuotientRing(5, 1)) == 0


def test_compose_twists_degrees_and_entries():
    r = ring24()
    x = r.gen()
    one = r.one()
    zero = r.zero()
    a = TwistedOperator(((x, one), (zero, one)), 1)
    b = TwistedOperator(((one, x), (zero, one)), 1)
    ab = compose(a, b)
    assert ab.degree == 2
    # b's x entry gets squared by a's twist before multiplying
    assert ab.rows[0][1] == x * (x * x) + one  # x * x^2 + 1... entry (0,1)
    ba = compose(b, a)
    assert ba.degree == 2
    assert ab.rows != ba.rows  # twisted product is not commutative


def test_compose_rejects_mismatches():
    r = ring24()
    a = identity_operator(r, 2, 1)
    b = identity_operator(QuotientRing(2, 5), 2, 1)
    with pytest.raises(ValueError):
        compose(a, b)
    c = identity_operator(r, 3, 1)
    with pytest.raises(ValueError):
        compose(a, c)


def test_bracket_is_entrywise_and_identity_fixed():
    r = ring24()
    ident = identity_operator(r, 3, 0)
    assert bracket(ident.rows, 5) == ident.rows
    op = TwistedOperator(((r.gen(), r.one()), (r.zero(), r.gen())), 0)
    br = bracket(op.rows, 1)
    assert br[0][0].coeffs == (0, 0, 1, 0)
    assert br[1][1].coeffs == (0, 0, 1, 0)


def test_scalar_rule():
    # (cA, e) o (B, e') = (c(A o B), e + e') for a scalar c, since the
    # twist only touches the right factor
    r = ring24()
    rng = random.Random(3)
    c = r.random_element(rng)
    a = random_operator(r, 2, 1, rng)
    b = random_operator(r, 2, 2, rng)
    ca = TwistedOperator(
        tuple(tuple(c * v for v in row) for row in a.rows), a.degree
    )
    left = compose(ca, b)
    plain = compose(a, b)
    right = TwistedOperator(
        tuple(tuple(c * v for v in row) for row in plain.rows), plain.degree
    )
    assert left == right


def test_factorization_check_validates_preconditions():
    r = ring24()
    rows = identity_operator(r, 2, 0).rows
    with pytest.raises(ValueError):
        factorization_check(rows, 5, 1)  # p^1 < 4
    with pytest.raises(ValueError):
        factorization_check(rows, 1, 2)  # e < e0


def test_factorization_check_holds_on_random_operators():
    rng = random.Random(11)
    for p, n, r in [(2, 4, 2), (3, 3, 2), (2, 2, 3)]:
        ring = QuotientRing(p, n)
        e0 = min_kill_degree(ring)
        for e in range(e0, e0 + 5):
            op = random_operator(ring, r, e, rng)
            assert factorization_check(op.rows, e, e0)
            if e > e0:
                # any threshold between the minimum and e works too
                assert factorization_check(op.rows, e, e0 + 1)


def test_identity_chain_splits_the_tail_into_bounded_twists():
    for e0, tail in product(range(5), range(31)):
        parts = _identity_chain(tail, e0)
        if e0 == 0 or tail < 2 * e0:
            assert parts is None, (e0, tail)
        else:
            k, c = parts
            assert k * e0 + c == tail and k >= 1 and e0 <= c < 2 * e0, (e0, tail, parts)


def low_weight_operators(ring, degrees):
    """All 2x2 operators with at most one entry from {1, x, 1+x}."""
    zero = ring.zero()
    entries = [ring.one(), ring.gen(), ring.one() + ring.gen()]
    mats = [((zero, zero), (zero, zero))]
    for i, j in product(range(2), repeat=2):
        for v in entries:
            rows = [[zero, zero], [zero, zero]]
            rows[i][j] = v
            mats.append(tuple(tuple(r) for r in rows))
    return [TwistedOperator(m, deg) for m in mats for deg in degrees]


def test_associativity_exhaustive_low_weight():
    ring = QuotientRing(2, 2)
    ops = low_weight_operators(ring, (0, 1))
    assert len(ops) == 26
    for a in ops:
        for b in ops:
            ab = compose(a, b)
            for c in ops:
                assert compose(ab, c) == compose(a, compose(b, c))


@settings(max_examples=100)
@given(st.data())
def test_associativity_and_degrees_random(data):
    p, n = data.draw(st.sampled_from([(2, 4), (3, 3), (5, 2)]))
    r = data.draw(st.integers(min_value=1, max_value=3))
    seed = data.draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    ring = QuotientRing(p, n)
    degs = [data.draw(st.integers(min_value=0, max_value=3)) for _ in range(3)]
    a, b, c = (random_operator(ring, r, deg, rng) for deg in degs)
    ab = compose(a, b)
    bc = compose(b, c)
    assert ab.degree == a.degree + b.degree
    assert compose(ab, c) == compose(a, bc)
    # bracket is multiplicative entrywise: (AB)^[q] = A^[q] B^[q]
    e = data.draw(st.integers(min_value=0, max_value=3))
    prod_then = bracket(compose(TwistedOperator(a.rows, 0),
                                TwistedOperator(b.rows, 0)).rows, e)
    then_prod = compose(TwistedOperator(bracket(a.rows, e), 0),
                        TwistedOperator(bracket(b.rows, e), 0)).rows
    assert prod_then == then_prod


def schoolbook_twisted_product(a, b, p, n, q):
    """A * B^[q] from plain coefficient lists: substitute x^q into each entry
    of B, multiply out in full, then drop x^n and higher and reduce mod p."""
    def twist(g):
        out = [0] * ((len(g) - 1) * q + 1)
        for v, c in enumerate(g):
            out[v * q] = c
        return out

    def times(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, c in enumerate(f):
            for j, d in enumerate(g):
                out[i + j] += c * d
        return out

    r = len(a)
    result = []
    for i in range(r):
        row = []
        for j in range(r):
            total = [0] * n
            for t in range(r):
                full = times(a[i][t], twist(b[t][j]))
                for k in range(min(n, len(full))):
                    total[k] += full[k]
            row.append(tuple(c % p for c in total))
        result.append(row)
    return result


@settings(max_examples=100)
@given(st.data())
def test_compose_matches_schoolbook_reference(data):
    p, n = data.draw(st.sampled_from([(2, 4), (3, 3), (5, 2)]))
    r = data.draw(st.integers(min_value=1, max_value=3))
    da, db = (data.draw(st.integers(min_value=0, max_value=3)) for _ in range(2))
    matrix = st.lists(
        st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                 min_size=r, max_size=r),
        min_size=r, max_size=r,
    )
    a, b = data.draw(matrix), data.draw(matrix)
    ring = QuotientRing(p, n)

    def op(m, deg):
        return TwistedOperator(tuple(tuple(ring.element(c) for c in row) for row in m), deg)

    fg = compose(op(a, da), op(b, db))
    assert fg.degree == da + db
    expected = schoolbook_twisted_product(a, b, p, n, p**da)
    assert [[v.coeffs for v in row] for row in fg.rows] == expected
