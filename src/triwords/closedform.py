"""Closed-form class counts, evaluated three independent ways.

The shared third-order recurrence has characteristic polynomial
x^3 - 27(x^2 - x + 27) with roots

    x1 = 27,    x2 = 3*sqrt(3)*i,    x3 = -3*sqrt(3)*i,

so 18 times each of A, B, C is a combination of x1^n, x2^n, x3^n with
coefficients in Z[i, sqrt3], and D (whose recurrence is simply x(n) =
27*x(n-1)) is 2*27^n/3.  The same counts have an explicit oscillating term,

    A(n) = 3^(3n-2) + (1 + (-1)^n) * i^n * 3^((3n-2)/2)
    B(n) = 3^(3n-2) - ((1 + (-1)^n) + i*sqrt3*(1 - (-1)^n)) * i^n/2 * 3^((3n-2)/2)
    C(n) = 3^(3n-2) - ((1 + (-1)^n) - i*sqrt3*(1 - (-1)^n)) * i^n/2 * 3^((3n-2)/2)
    D(n) = 2 * 3^(3n-1),

and, after branching on the parity of n, with no radicals at all.  Each
route computes the whole class vector at n, taking the shared powers once;
the first two clear denominators (2 in the oscillating B and C, 18 in the
root basis) and divide exactly once.  All three must agree bit for bit;
the radical-free route exists to catch sign slips in the ring arithmetic.
Each takes a number type `num`, int by default or `decimal.Decimal` read
in `digits.EXACT`, and raises its powers from num(3), num(27) or X2 with
num coordinates, so no computed int is ever converted.

The formulas hold for n >= 1.  They are not extended to n = 0: there the
oscillating forms give 7/9, -2/9, -2/9 instead of the true 1, 0, 0, which
is also why the third-order recurrence only applies from n = 4 onward.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Callable, TypeVar

from .counting import ClassLabel, ClassVector
from .ring import AlgebraicQ3i, I_SQRT3, NotRationalInteger, i_power, sqrt3_power

T = TypeVar("T")

# Roots of x^3 - 27(x^2 - x + 27); x2 and x3 are complex conjugates.
X1 = 27
X2 = AlgebraicQ3i(0, 0, 0, 3)
X3 = X2.conjugate()

# The coefficients of (x1^n, x2^n, x3^n) in 18*C_label(n).  Unscaled, A's are
# (1/9, 1/3, 1/3), B's (1/9, -(1 + i*sqrt3)/6, -(1 - i*sqrt3)/6) and D's (2/3, 0, 0); C swaps B's last two.
_ROOT_BASIS_X18 = {
    ClassLabel.A: (2, 6, 6),
    ClassLabel.B: (2, -3 - 3 * I_SQRT3, -3 + 3 * I_SQRT3),
    ClassLabel.C: (2, -3 + 3 * I_SQRT3, -3 - 3 * I_SQRT3),
    ClassLabel.D: (12, 0, 0),
}


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"closed forms hold for n >= 1, got {n}")


def _exact_quotient(value: AlgebraicQ3i, divisor: int) -> int | Decimal:
    """value / divisor as an integer of value's type, or raise NotRationalInteger when it is not one."""
    quotient, remainder = divmod(value.to_integer(), divisor)
    if remainder:
        raise NotRationalInteger(f"{value} is not a multiple of {divisor}")
    return quotient


def closed_form_vector(n: int, num: Callable[[int], T] = int) -> ClassVector:
    """Evaluate the oscillating-term formulas for every class at n in Z[i, sqrt3], as num."""
    _require_positive(n)
    base = num(3) ** (3 * n - 2)
    osc = i_power(n) * sqrt3_power(3 * n - 2, num)
    even, odd = (1 + (-1) ** n) * osc, (1 - (-1) ** n) * I_SQRT3 * osc
    # B and C twice over, clearing the 1/2 of their oscillating terms; C's i*sqrt3 is B's negated.
    b2, c2 = 2 * base - even - odd, 2 * base - even + odd
    return ClassVector(n, _exact_quotient(base + even, 1), _exact_quotient(b2, 2), _exact_quotient(c2, 2), 6 * base)


def root_basis_vector(n: int, num: Callable[[int], T] = int) -> ClassVector:
    """Evaluate every class at n as a combination of the root powers, over the denominator 18, as num."""
    _require_positive(n)
    x1n, x2n = num(X1) ** n, AlgebraicQ3i(*map(num, X2)) ** n
    x3n = x2n.conjugate()  # X3 is X2's conjugate, and conjugation is a ring automorphism
    rows = (_ROOT_BASIS_X18[label] for label in ClassLabel)
    return ClassVector(n, *(_exact_quotient(c1 * x1n + c2 * x2n + c3 * x3n, 18) for c1, c2, c3 in rows))


def case_mod4_vector(n: int, num: Callable[[int], T] = int) -> ClassVector:
    """Evaluate every class at n with integer arithmetic only, as num.

    For even n the oscillation collapses to (-1)^(n/2) * 3^((3n-2)/2); for
    odd n the half-integer power of 3 combines with the i*sqrt3 factor
    into 3^((3n-1)/2) with a sign that alternates with n mod 4.
    """
    _require_positive(n)
    three = num(3)
    base = three ** (3 * n - 2)
    sign = -1 if (n // 2) % 2 else 1
    if n % 2 == 0:
        half = sign * three ** ((3 * n - 2) // 2)
        return ClassVector(n, base + 2 * half, base - half, base - half, 6 * base)
    odd = sign * three ** ((3 * n - 1) // 2)
    return ClassVector(n, base, base + odd, base - odd, 6 * base)


def closed_form(label: ClassLabel, n: int) -> int:
    """C_label(n) from the oscillating-term formulas; see closed_form_vector."""
    return closed_form_vector(n).component(label)


def root_basis(label: ClassLabel, n: int) -> int:
    """C_label(n) from the root powers; see root_basis_vector."""
    return root_basis_vector(n).component(label)


def case_mod4(label: ClassLabel, n: int) -> int:
    """C_label(n) with integer arithmetic only; see case_mod4_vector."""
    return case_mod4_vector(n).component(label)
