"""From the coupled 4x4 recurrence to one shared third-order recurrence.

Appending three letters to a word moves it between classes in a very
regular way (same letters keep the class, distinct letters rotate
C -> A -> B -> C, anything else lands in D).  That gives a coupled linear
step; eliminating variables decouples it.
"""

from triwords import (
    ClassLabel,
    TRANSITION_MATRIX,
    coupled_sequence,
    decoupled_d,
    decoupled_third_order,
    identity_suite,
    quartic_c,
)

print("Transition matrix (rows A, B, C, D; applied to the counts at n-1):")
for label, row in zip("ABCD", TRANSITION_MATRIX):
    print(f"  {label}: {row}")
print("Column sums:", [sum(r[j] for r in TRANSITION_MATRIX) for j in range(4)], "(always 27)")
print()

print("Iterating from the seed (1, 0, 0, 0) at n = 0:")
for v in coupled_sequence(4):
    print(f"  n={v.n}: {v.as_tuple()}")
print()

print("The same numbers from the decoupled engines:")
print("  x(n) = 27*(x(n-1) - x(n-2) + 27*x(n-3)) with per-class seeds,")
print("  D(n) = 27*D(n-1).")
for n in range(5):
    row = (
        decoupled_third_order(ClassLabel.A, n),
        decoupled_third_order(ClassLabel.B, n),
        decoupled_third_order(ClassLabel.C, n),
        decoupled_d(n),
    )
    assert row == coupled_sequence(n)[n].as_tuple()
    print(f"  n={n}: {row}")
print()

print("Class C also satisfies x(n) = 26*x(n-1) + 702*x(n-3) + 729*x(n-4),")
print("whose characteristic polynomial is (x + 1) times the third-order one.")
print("Because of the extra factor the relation only kicks in at n = 5:")
c = [quartic_c(n) for n in range(8)]
residual_at_4 = c[4] - (26 * c[3] + 702 * c[1] + 729 * c[0])
print(f"  residual at n=4: {residual_at_4} (non-zero: C(4) = 58806 is seed data)")
residual_at_5 = c[5] - (26 * c[4] + 702 * c[2] + 729 * c[1])
print(f"  residual at n=5: {residual_at_5}")
print()

print("Every elimination identity used in the decoupling, checked numerically to n = 30:")
report = identity_suite(30)
print(report)
assert report.all_pass
