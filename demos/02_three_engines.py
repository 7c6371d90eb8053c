"""Three independent ways to count basis monomials, racing on one cell.

1. enumeration: count the compositions of p^e - 1 that pass the truncated
   digit-sum inequalities, over distinct prefix states.  Assumption-free:
   it uses the inequalities only, no carries.
2. carry vectors: sum products of digit-count table entries over all
   possible interior carry vectors.  Cost (d-2)^(e-1).
3. transfer: evolve a census vector by a fixed (d-2)x(d-2) integer matrix.
   A far term takes O(log e) polynomial products modulo the matrix's
   characteristic polynomial (Fiduccia); a near one is the last count of
   a matrix sweep.

They must agree to the last digit, and do.
"""

import time

from frobcx import (
    complexity_term,
    count_basis_carryvectors,
    count_basis_enumeration,
)

CELLS = [(2, 4, 5), (2, 5, 4), (3, 4, 3), (5, 3, 3), (2, 6, 5)]

print(f"{'p':>2} {'d':>2} {'e':>2} {'enumeration':>12} {'carry':>12} "
      f"{'transfer':>12}  {'slowest':>9}")
for p, d, e in CELLS:
    t0 = time.perf_counter()
    a = count_basis_enumeration(p, d, e)
    t1 = time.perf_counter()
    b = count_basis_carryvectors(p, d, e)
    c = complexity_term(p, d, e)
    assert a == b == c
    print(f"{p:>2} {d:>2} {e:>2} {a:>12} {b:>12} {c:>12}  {t1 - t0:>8.3f}s")

print()
print("the transfer engine reaches levels enumeration never could:")
report_c = complexity_term(2, 4, 40)
print(f"c(p=2, d=4, e=40) = {report_c}")
print("(enumeration would face ~2^117 compositions for this cell, far past its guard)")
far = complexity_term(2, 6, 20000)
# bit_length, not str(): the count has more digits than Python's default int/str limit of 4,300
print(f"c(p=2, d=6, e=20000) has {far.bit_length()} bits")
