"""Linear transfer recursion for the generator-count sequence.

Group the basis monomials of level e by their top interior carry.  Moving
from level e to level e+1 prepends one digit column, and the number of ways
to prepend a column that turns carry-in j into carry-out i is the
coefficient M_d(p*i - j + p - 1) of the digit-count polynomial.  The census
vector of counts by carry therefore evolves linearly:

    X_0[i] = M_d(p*i + p - 1),          i = 1..d-2   (level 2 census)
    X_{n+1} = U X_n,                    U[i][j] = M_d(p*i - j + p - 1)
    c_{d,e} = sum_i M_d(p - 1 - i) * X_{e-2}[i],     e >= 2,

with the two degenerate levels handled directly: c_{d,0} = 0, c_{d,1} =
comb(d + p - 2, p - 1) (every monomial of degree p - 1 qualifies), and
c_{d,e} = 0 for d <= 2, e >= 2 (no positive interior carry is possible).

By Cayley-Hamilton the counts also obey the order-n recurrence of the
characteristic polynomial chi = t^n + sum_k a_k t^k of U, n = d - 2:

    c_{e+n} = -sum_k a_k c_{e+k},       e >= 2,

so every count is a fixed combination of c_2..c_{n+1}, which the matrix
gives.  ``iter_counts`` yields the whole sequence with n products per term
where the matrix takes n^2 + n, holding only the census vector or chi's last
n counts; ``sweep`` is the list of it.  ``complexity_term`` finds one far
term by Fiduccia's method: L(f) = w f(U) x0 has L(t^m) = c_{m+2} and vanishes
on multiples of chi, so c_e = L(q^2 t^b) = q H q for e - 2 = 2k + b,
q = t^k mod chi and the Hankel matrix H[i][j] = c_{i+j+2+b}.  This Hankel
finish is n big products in place of the last, largest squaring.  q comes
by square-and-multiply, each square taking n(n + 1)/2 int squares, as
2 r_i r_k = (r_i + r_k)^2 - r_i^2 - r_k^2.  ``char_poly`` costs about n^4/4
small products (Berkowitz), so chi is used only where it pays, by one
crossover rule (``_chi_pays``): from the last level wanted
e >= T = n^2/4 + n + 8 on, a sweep turns to chi after c_{n+1} and one term
is Fiduccia's; below it, one term is a matrix sweep's last count.  The
finish's terms, to level 2n + 3 at most, come from a matrix sweep too, as
2n + 3 < T for every n.  The rule was fit with Berkowitz's chi: measured
for p = 2 and 5 on ints, a sweep's matrix/chi time ratio crossed 1 at
0.9-1.1 T for n = 10 and at 0.4-0.65 T for n = 30, one term's
sweep/Fiduccia ratio at 1.1-1.2 T and at 0.5-0.6 T; on Decimals a sweep's
crossed at 0.3-0.7 T for n = 10..30.  Counts grow to about e * log2(rho)
bits, rho the spectral radius.

The partial sums k_e = c_0 + ... + c_e have k_e - k_{e-1} = c_e, so from
e = 1 on they obey the order-(n + 1) recurrence of (t - 1) chi, and
``term_and_sum`` finds one far pair (c_e, k_e) under the same crossover
rule by the same Hankel finish on k_1..k_{2n+3}: one q gives k_{e-1} = q H q
and k_e = q H' q, H' the Hankel matrix shifted by one term, and c_e is their
difference.

The sweep runs on ints for library callers and on exact decimals for the
CLI: CPython's int-to-str conversion takes time quadratic in the digit
count, while a Decimal, stored in base-10^19 limbs, prints in linear time
and to the same string.  ``char_poly`` lives here, next to the recurrence
that reads its coefficient tuple; ``spectral`` re-exports it.  The package
does not export the three names at the end, ``state`` (U^e x0 by e steps
of U), ``complexity_sequence`` and ``ComplexityReport``: no count path calls
them, but the benchmark does.  Its tests call ``state``; it wraps
``complexity_sequence`` and reads only the report's one field, ``c``.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterator, Sequence
from itertools import accumulate
from math import comb
from operator import index, mul, sub

from .basep import Prime, at_least
from .poincare import build_table

Matrix = tuple[tuple[int, ...], ...]


class TransferSystem(namedtuple("TransferSystem", "p d matrix x0 weights")):
    """Matrix U, seed census x0 and top-level weights for one (p, d)."""

    __slots__ = ()

    def __new__(cls, p: int, d: int, matrix: Matrix, x0: tuple[int, ...],
                weights: tuple[int, ...]) -> "TransferSystem":
        p, d = Prime(p), index(d)  # 4.0 raises TypeError
        n = d - 2
        if n < 1:
            raise ValueError("transfer systems exist for d >= 3 only")
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("matrix must be (d-2) x (d-2)")
        if len(x0) != n or len(weights) != n:
            raise ValueError("x0 and weights must have length d-2")
        return super().__new__(cls, p, d, matrix, x0, weights)

    @property
    def dim(self) -> int:
        return self.d - 2


def build_system(p: int, d: int) -> TransferSystem:
    """Assemble the transfer system for (p, d), d >= 3."""
    p = Prime(p)
    if d < 3:
        raise ValueError(
            "no transfer system for d <= 2; counts there are comb(d+p-2, p-1) "
            "at e = 1 and 0 for e >= 2"
        )
    n = d - 2
    # row i of [[M_d(p*i - j + p - 1)]], i, j = 0..n, is a reversed slice of
    # the table padded with zeros; x0 is column 0 and the weights row 0
    pad = [0] * n + list(build_table(p, d)) + [0] * (p * n + p)
    rows = [pad[p * i + p - 1 + n:p * i + p - 2:-1] for i in range(n + 1)]
    matrix = tuple(tuple(row[1:]) for row in rows[1:])
    return TransferSystem(p, d, matrix, tuple(row[0] for row in rows[1:]), tuple(rows[0][1:]))


def _apply(matrix: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, x)) for row in matrix]


def _validate_matrix(matrix) -> Matrix:
    rows = tuple(tuple(map(index, row)) for row in matrix)  # no truncation: 2.5 raises TypeError
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return rows


def char_poly(matrix) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - U), exactly, as its coefficients.

    The tuple has length n + 1, x^0's coefficient first, and ends in 1.

    By Berkowitz's division-free method (1984): with U = [[a, r], [c, M]],
    det(xI - U) is det(xI - M) times the lower triangular Toeplitz matrix
    with first column 1, -a, -rc, -rMc, -rM^2c, ...  The loop builds
    det(xI - M) for U's trailing blocks M, from its last diagonal entry
    outwards, one row and column a step: about n^4/4 integer products, and
    no division.
    """
    rows = _validate_matrix(matrix)
    n = len(rows)
    poly = [1]  # det(xI - M), highest power first, M the trailing block
    for k in range(n - 1, -1, -1):
        sub = [row[k + 1:] for row in rows[k + 1:]]
        r = rows[k][k + 1:]
        v = [row[k] for row in rows[k + 1:]]
        col = [1, -rows[k][k]]
        for _ in sub:
            col.append(-sum(map(mul, r, v)))
            v = _apply(sub, v)
        poly = [sum(map(mul, col[i::-1], poly)) for i in range(len(col))]
    return tuple(reversed(poly))


def _power_of_t(j: int, recurrence: list[int]) -> list[int]:
    # t^j mod the polynomial of the recurrence, low coefficient first, by
    # square-and-multiply from the top bit of j; t^n = sum b_k t^k reduces
    # every degree >= n, the highest first
    n = len(recurrence)
    pairs = [(k, b) for k, b in enumerate(recurrence) if b]
    r = [1]
    for bit in bin(j)[2:]:
        m = len(r)
        s = [0] * (2 * m - 1)
        s[::2] = sq = [u * u for u in r]
        for i in range(m):  # 2 r_i r_k = (r_i + r_k)^2 - r_i^2 - r_k^2: m(m+1)/2 squares
            for k in range(i + 1, m):
                v = r[i] + r[k]
                s[i + k] += v * v - sq[i] - sq[k]
        if bit == "1":
            s.insert(0, 0)
        for top in range(len(s) - 1, n - 1, -1):
            q = s[top]
            for k, b in pairs:
                s[top - n + k] += b * q
        del s[n:]
        r = s
    return r


def _chi_pays(n: int, e: int) -> bool:
    # the crossover rule of the module docstring, for the counts up to c_e
    return e >= n * n // 4 + n + 8


def _hankel_finish(
    s: Sequence[int], coeffs: Sequence[int], j: int, shifts: Sequence[int]
) -> list[int]:
    # s_{j+a} for each shift a, s obeying the recurrence of the monic polynomial
    # of degree n whose coefficients, low first, are given, from s_0..s_{2n-1+a}:
    # s_{j+a} = q H_a q for q = t^(j // 2) mod it, H_a[i][k] = s_{i+k+j%2+a};
    # modulo it t^n = sum b_k t^k with b_k = -a_k
    q = _power_of_t(j // 2, [-a for a in coeffs[:-1]])
    return [sum(u * sum(map(mul, s[i + j % 2 + a:], q)) for i, u in enumerate(q)) for a in shifts]


def complexity_term(p: int, d: int, e: int) -> int:
    """The generator count c_{d,e}, via the transfer recursion.

    Below the crossover rule, the last count of ``sweep(p, d, e)`` (to e <= 2
    for d <= 2, whose later counts are 0); from it on, Fiduccia's method.
    """
    d, e = index(d), at_least(e, 0, "e")  # p is checked where it is used
    n = d - 2
    if n < 1 or not _chi_pays(n, e):
        return sweep(p, d, min(e, 2) if n < 1 else e)[-1]
    system = build_system(p, d)
    c = list(iter_counts(p, d, 2 * n + 1, system))[2:]  # c_2..c_{2n+1}, by the matrix
    return _hankel_finish(c, char_poly(system.matrix), e - 2, (0,))[0]


def term_and_sum(p: int, d: int, e: int) -> tuple[int, int]:
    """The pair (c_{d,e}, k_{d,e}), k_{d,e} = c_{d,0} + ... + c_{d,e}: a table's last row.

    Below the crossover rule, from ``sweep(p, d, e)``; from it on, by
    Fiduccia's method on the recurrence of (t - 1) chi, which k obeys from
    k_1 on (module docstring): one Hankel finish gives k_{e-1} and k_e, and
    c_e is their difference.
    """
    d, e = index(d), at_least(e, 0, "e")  # p is checked where it is used
    n = d - 2
    if n < 1 or not _chi_pays(n, e):
        c = sweep(p, d, min(e, 2) if n < 1 else e)
        return c[-1], sum(c)
    system = build_system(p, d)
    k = list(accumulate(iter_counts(p, d, 2 * n + 3, system)))[1:]  # k_1..k_{2n+3}, by the matrix
    chi = char_poly(system.matrix)
    # (t - 1) chi has coefficient a_{m-1} - a_m at t^m
    before, k_e = _hankel_finish(k, tuple(map(sub, (0, *chi), (*chi, 0))), e - 2, (0, 1))
    return k_e - before, k_e


def iter_counts(
    p: int, d: int, emax: int, system: TransferSystem | None = None, number=int
) -> Iterator:
    """The counts c_0..c_emax, yielded one at a time by a sweep of the recursion.

    The arguments are checked when it is called; each count is computed when
    it is taken, and only the census vector, or chi's last n counts, is held.
    The matrix gives c_2..c_{n+1}, and the later counts too while emax is
    below the crossover of the module docstring; above it chi's recurrence
    gives them.  The sweep only adds and multiplies, so it runs in any
    number type that ints mix with: ``number`` converts c_1, x0 and the
    recurrence's coefficients, and every later count is computed from
    those.  ``number=decimal.Decimal`` is exact only under a context that
    cannot round, and it is the context current when each count is taken
    that counts.  ``system`` replaces the one ``build_system(p, d)`` would
    assemble; it must be for the same (p, d), with integer entries.
    """
    p, d, emax = Prime(p), at_least(d, 1, "d"), at_least(emax, 0, "emax")  # here, not mid-sweep
    if system is not None:
        if (system.p, system.d) != (p, d):
            raise ValueError(
                f"system is for (p={system.p}, d={system.d}), not (p={p}, d={d})"
            )
        system = system._replace(matrix=_validate_matrix(system.matrix),
                                 x0=tuple(map(index, system.x0)),
                                 weights=tuple(map(index, system.weights)))
    return _counts(p, d, emax, system, number)


def _counts(p: Prime, d: int, emax: int, system: TransferSystem | None, number) -> Iterator:
    yield 0
    if emax >= 1:
        yield number(comb(d + p - 2, p - 1))
    if d < 3 or emax < 2:
        for _ in range(2, emax + 1):  # d <= 2: 0 past c_1
            yield 0
        return
    system = system or build_system(p, d)
    n = system.dim
    last = n + 1 if _chi_pays(n, emax) else emax
    x = [number(v) for v in system.x0]
    recent = deque([sum(map(mul, system.weights, x))], maxlen=n)  # c_{e-n}..c_{e-1}
    yield recent[0]
    for _ in range(3, last + 1):
        x = _apply(system.matrix, x)
        recent.append(sum(map(mul, system.weights, x)))
        yield recent[-1]
    if last < emax:
        # U^n = sum b_k U^k, b_k = -a_k for chi's a_k, by Cayley-Hamilton, so
        # c_e = sum b_k c_{e-n+k}; zero b_k are kept, so that map runs it in C
        b = [number(-a) for a in char_poly(system.matrix)[:-1]]
        for _ in range(n + 2, emax + 1):
            recent.append(sum(map(mul, b, recent)))
            yield recent[-1]


def sweep(p: int, d: int, emax: int) -> list[int]:
    """The counts c_0..c_emax as a list: ``list(iter_counts(p, d, emax))``."""
    return list(iter_counts(p, d, emax))


# not exported; perfbench/tests/test_checker.py calls transfer.state
def state(system: TransferSystem, e: int) -> tuple[int, ...]:
    """The census vector U^e x0, by e steps of U.  A reference only: no count path calls it."""
    x = system.x0
    for _ in range(at_least(e, 0, "e")):
        x = _apply(system.matrix, x)
    return tuple(x)


# not exported; perfbench/spans.py wraps complexity_sequence by name and reads .c
ComplexityReport = namedtuple("ComplexityReport", "c")


def complexity_sequence(p: int, d: int, emax: int) -> ComplexityReport:
    """The counts c_0..c_emax as ints, by ``sweep``."""
    return ComplexityReport(tuple(sweep(p, d, emax)))
