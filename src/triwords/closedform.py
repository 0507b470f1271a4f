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

and, after branching on n mod 4, with no radicals at all.  The first two
routes clear denominators (2 in the oscillating B and C, 18 and 3 in the
root basis) and divide exactly once.  All three must agree bit for bit;
the radical-free route exists to catch sign slips in the ring arithmetic.

The formulas hold for n >= 1.  They are not extended to n = 0: there the
oscillating forms give 7/9, -2/9, -2/9 instead of the true 1, 0, 0, which
is also why the third-order recurrence only applies from n = 4 onward.
"""

from __future__ import annotations

from .counting import ClassLabel
from .ring import AlgebraicQ3i, I_SQRT3, NotRationalInteger, i_power, sqrt3_power

# Roots of x^3 - 27(x^2 - x + 27); x2 and x3 are complex conjugates.
X1 = 27
X2 = AlgebraicQ3i(0, 0, 0, 3)
X3 = X2.conjugate()

# The coefficients of (x1^n, x2^n, x3^n) in 18*C_label(n).  Unscaled, A's are
# (1/9, 1/3, 1/3) and B's (1/9, -(1 + i*sqrt3)/6, -(1 - i*sqrt3)/6); C swaps B's last two.
_ROOT_BASIS_X18 = {
    ClassLabel.A: (2, 6, 6),
    ClassLabel.B: (2, -3 - 3 * I_SQRT3, -3 + 3 * I_SQRT3),
    ClassLabel.C: (2, -3 + 3 * I_SQRT3, -3 - 3 * I_SQRT3),
}


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"closed forms hold for n >= 1, got {n}")


def _exact_quotient(value: AlgebraicQ3i, divisor: int) -> int:
    """value / divisor as an int, or raise NotRationalInteger when it is not one."""
    quotient, remainder = divmod(value.to_integer(), divisor)
    if remainder:
        raise NotRationalInteger(f"{value} is not a multiple of {divisor}")
    return quotient


def closed_form(label: ClassLabel, n: int) -> int:
    """Evaluate the oscillating-term formula for C_label(n) in Z[i, sqrt3]."""
    _require_positive(n)
    if label is ClassLabel.D:
        return 2 * 3 ** (3 * n - 1)
    base = 3 ** (3 * n - 2)
    osc = i_power(n) * sqrt3_power(3 * n - 2)
    parity_plus = 1 + (-1) ** n
    parity_minus = 1 - (-1) ** n
    if label is ClassLabel.A:
        return _exact_quotient(base + parity_plus * osc, 1)
    # B and C twice over, clearing the 1/2 of their oscillating terms; C's i*sqrt3 is B's negated.
    i_sqrt3 = I_SQRT3 if label is ClassLabel.B else -I_SQRT3
    return _exact_quotient(2 * base - (parity_plus + i_sqrt3 * parity_minus) * osc, 2)


def root_basis(label: ClassLabel, n: int) -> int:
    """Evaluate C_label(n) as a combination of the root powers, over a common denominator."""
    _require_positive(n)
    if label is ClassLabel.D:
        return _exact_quotient(AlgebraicQ3i(2 * X1**n), 3)
    c1, c2, c3 = _ROOT_BASIS_X18[label]
    return _exact_quotient(c1 * X1**n + c2 * X2**n + c3 * X3**n, 18)


def case_mod4(label: ClassLabel, n: int) -> int:
    """Evaluate C_label(n) with integer arithmetic only, branching on n mod 4.

    For even n the oscillation collapses to (-1)^(n/2) * 3^((3n-2)/2); for
    odd n the half-integer power of 3 combines with the i*sqrt3 factor
    into 3^((3n-1)/2) with a sign that alternates with n mod 4.
    """
    _require_positive(n)
    if label is ClassLabel.D:
        return 2 * 3 ** (3 * n - 1)
    base = 3 ** (3 * n - 2)
    if n % 2 == 0:
        sign = -1 if (n // 2) % 2 else 1
        half = 3 ** ((3 * n - 2) // 2)
        if label is ClassLabel.A:
            return base + 2 * sign * half
        return base - sign * half  # B and C share the even branch
    if label is ClassLabel.A:
        return base
    s = 1 if n % 4 == 1 else -1
    odd = 3 ** ((3 * n - 1) // 2)
    return base + s * odd if label is ClassLabel.B else base - s * odd
