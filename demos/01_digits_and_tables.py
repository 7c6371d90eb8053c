"""Base-p digits, carries, and the digit-count tables everything rests on.

A monomial x1^a1 ... xd^ad of degree p^e - 1 is a basis monomial exactly
when adding its exponents in base p produces a positive carry out of every
digit position below the top.  This script shows the raw ingredients:
digit expansions, carry sequences, and the coefficient tables of
(1 + t + ... + t^{p-1})^d that count digit columns.
"""

from frobcx import ExponentVector, build_table, carry_sequence, digits, is_basis_monomial

print("=== base-2 digits of 11, four positions (little-endian) ===")
print(f"digits(11, 2, 4) = {tuple(digits(11, 2, 4))}")
print()

print("=== carries when summing exponents, p=2, degree 2^4 - 1 = 15 ===")
for exponents in [(7, 7, 1), (5, 5, 5), (15, 0, 0)]:
    v = ExponentVector(exponents, 2, 4)
    carries = carry_sequence(v)
    verdict = "basis" if is_basis_monomial(v) else "not basis"
    print(f"a = {exponents!s:<12} carries = {carries}  -> {verdict}")
print("positive interior carries <=> basis membership (the top carry is 0)")
print()

print("=== digit-count tables: coefficients of (1 + t + ... + t^(p-1))^d ===")
for p, d in [(2, 4), (3, 3), (5, 2)]:
    table = build_table(p, d)
    print(f"p={p} d={d}: {list(table)}  (sum = {p}^{d} = {sum(table)})")
print()
print("entry m counts the d-tuples of base-p digits summing to m; the")
print("table is symmetric and vanishes outside [0, d(p-1)].")
