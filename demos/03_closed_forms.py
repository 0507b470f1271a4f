"""Closed forms, evaluated exactly in the ring Q(i, sqrt3).

The third-order recurrence has characteristic roots 27 and +-3*sqrt3*i,
so each class count is a fixed combination of their n-th powers.  No
floating point appears anywhere: each form is scaled by its common
denominator, so the ring's four coordinates over the basis
(1, sqrt3, i, i*sqrt3) stay integers, and one exact division ends it.
"""

from triwords import ClassLabel, case_mod4, closed_form, composition_sum, root_basis
from triwords.closedform import X1, X2, X3
from triwords.ring import ZERO

print("Characteristic roots: x1 =", X1, "   x2 =", X2, "   x3 =", X3)
for root in (X2, X3):
    assert root**3 - 27 * (root**2 - root + 27) == ZERO
print("x2, x3 both satisfy x^3 - 27*(x^2 - x + 27) = 0 in the ring.")
print()

print("x2^n cycles through the basis with period 4 (powers of 3 growing):")
for n in range(1, 6):
    print(f"  x2^{n} = {X2**n}")
print()

print("Three exact evaluation routes per class (and the composition oracle):")
print(f"{'n':>2} {'class':>5} {'ring form':>14} {'root basis':>14} {'mod-4 cases':>14} {'oracle':>14}")
for n in (1, 2, 3, 4, 7, 10):
    oracle = composition_sum(n)
    for label in ClassLabel:
        a = closed_form(label, n)
        b = root_basis(label, n)
        c = case_mod4(label, n)
        assert a == b == c == oracle.component(label)
    label = ClassLabel.B
    print(f"{n:>2} {label.value:>5} {closed_form(label, n):>14} {root_basis(label, n):>14} "
          f"{case_mod4(label, n):>14} {oracle.component(label):>14}")
print()

print("The oscillating term vanishes for odd n in class A: C_A(n) = 3^(3n-2) exactly:")
for n in (1, 3, 5, 7):
    assert closed_form(ClassLabel.A, n) == 3 ** (3 * n - 2)
    print(f"  C_A({n}) = 3^{3*n-2} = {closed_form(ClassLabel.A, n)}")
print()

print("For even n it contributes +-2*3^((3n-2)/2), alternating with n mod 4:")
for n in (2, 4, 6, 8):
    dev = closed_form(ClassLabel.A, n) - 3 ** (3 * n - 2)
    print(f"  C_A({n}) - 3^{3*n-2} = {dev:+}")
