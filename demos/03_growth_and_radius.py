"""Counts grow geometrically; the rate is a certified spectral radius.

The census recursion makes the counts c_e behave like rho^e, with rho the
spectral radius of the transfer matrix.  Consecutive ratios c_{e+1}/c_e
drift toward rho, and ``perron_interval`` brackets rho with exact rational
bounds at most 10^-12 apart, which the ratios approach.
"""

from fractions import Fraction

from frobcx import build_system, char_poly, complexity_sequence, perron_interval

for p, d in [(2, 4), (3, 4), (2, 5)]:
    system = build_system(p, d)
    est = perron_interval(system.matrix, Fraction(1, 10**12))
    print(f"=== p={p}, d={d} ===")
    print(f"transfer matrix: {[list(r) for r in system.matrix]}")
    print(f"char poly:       {char_poly(system.matrix)}")
    print(f"radius interval: [{float(est.lo):.12f}, {float(est.hi):.12f}]"
          f"  ({est.iterations} iterations)")
    seq = complexity_sequence(p, d, 16).c
    print("ratios c_(e+1)/c_e:")
    for e in (3, 5, 8, 12, 15):
        ratio = Fraction(seq[e + 1], seq[e])
        inside = est.lo <= ratio <= est.hi
        print(f"  e={e:>2}: {float(ratio):.12f}"
              f"{'   <- inside the certified interval' if inside else ''}")
    print()

print("every bound above is an exact Fraction; no floating point was")
print("consulted in producing the brackets.")
