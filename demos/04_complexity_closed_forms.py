"""Complexity values: closed forms, certified intervals, irrationality.

The complexity of a d-variable instance is the base-p logarithm of the
count growth rate.  Three variables give rate p(p+1)/2 exactly, so the
complexity is 1 + log_p(p+1) - log_p(2): it depends on p and is never
rational (the log of a non-power-of-p rational).  Four variables in
characteristic 2 give the quadratic irrational rate 5 + sqrt(5).
"""

from fractions import Fraction

from frobcx import (
    build_system,
    closed_form_d3,
    complexity_d3,
    frobenius_complexity,
    known_complexity_expression,
    state,
)

TOL = Fraction(1, 10**12)

print("=== three variables: exact rate p(p+1)/2, closed-form complexity ===")
print(f"{'p':>3} {'rate':>5}  {'certified complexity interval':<34} closed form")
for p in (2, 3, 5, 7, 11):
    box = frobenius_complexity(p, 3, TOL)
    label = f"[{float(box.lo):.12f}, {float(box.hi):.12f}]"
    print(f"{p:>3} {complexity_d3(p):>5}  {label:<34} {known_complexity_expression(p, 3)}")
print("the value increases with p toward 2 and never repeats: the")
print("complexity remembers the characteristic.")
print()

print("=== closed product formula for the counts, d=3 ===")
for p, e in [(2, 5), (3, 3), (5, 3)]:
    print(f"c(p={p}, e={e}) = p^e (p-1)^2 (p+1)^(e-2) / 2^e = {closed_form_d3(p, e)}")
print()

print("=== characteristic 2, four variables: golden-style irrationality ===")
system = build_system(2, 4)
states = tuple(state(system, n) for n in range(5))
print(f"census pairs (A_n, B_n): {states} ...")
box = frobenius_complexity(2, 4, TOL)
print(f"complexity in [{float(box.lo):.12f}, {float(box.hi):.12f}]")
print(f"closed form: {known_complexity_expression(2, 4)}")
print("log_2(5 + sqrt(5)) is irrational: the counts' growth rate is not a")
print("rational power of the characteristic.")
