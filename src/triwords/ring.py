"""Exact arithmetic in the ring Q(i, sqrt(3)).

Elements are stored in the basis (1, sqrt3, i, i*sqrt3) with rational
coordinates, so every element has exactly one representation and equality
is coordinate equality.  A coordinate is any `numbers.Rational`, such as an
int or a `fractions.Fraction`, or a `decimal.Decimal`, kept as given; Python
makes 3 == Fraction(3) == Decimal(3) with equal hashes, so equal values
compare and hash equal whichever type they hold.  The engine paths use ints,
or Decimals in the exact context `digits.EXACT` when a value is computed to
be printed; the closed forms clear their denominators, so this module never
imports `fractions`.  An element is a `namedtuple` record of its four
coordinates, like every record in the package, but it equals no plain
tuple, has no order, and its + and * are the ring's: an operand that is
neither an element nor a coordinate raises TypeError, where the tuple
underneath would concatenate.  It is an integer when its last three
coordinates vanish and divmod(a, 1) leaves no remainder, one rule for
every coordinate type.  The multiplication table is

    sqrt3 * sqrt3 = 3          i * i = -1
    sqrt3 * i     = i*sqrt3    (i*sqrt3) * (i*sqrt3) = -3
    sqrt3 * (i*sqrt3) = 3*i    i * (i*sqrt3) = -sqrt3

This is just enough structure to evaluate n-th powers of the recurrence
roots 27 and +-3*sqrt(3)*i and the Z[i, sqrt3] coefficients that multiply
them, with no floating point anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal
from numbers import Rational
from typing import Callable, NoReturn

from .digits import brief


RationalLike = Rational | Decimal


class AlgebraicQ3i(namedtuple("AlgebraicQ3i", "a b c d", defaults=(0, 0, 0, 0))):
    """An element a + b*sqrt3 + c*i + d*i*sqrt3 with rational (int, Fraction, Decimal, ...) coordinates.

    Equality and hash are the coordinate tuple's, but only another element is ever equal.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other.__class__ is AlgebraicQ3i and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def _unordered(self, other: object) -> NoReturn:
        raise TypeError("ring elements have no order")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __add__(self, other: AlgebraicQ3i | RationalLike) -> AlgebraicQ3i:
        o = _promote(other)
        return tuple.__new__(AlgebraicQ3i, (self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d))

    __radd__ = __add__

    def __neg__(self) -> AlgebraicQ3i:
        return tuple.__new__(AlgebraicQ3i, (-self.a, -self.b, -self.c, -self.d))

    def __sub__(self, other: AlgebraicQ3i | RationalLike) -> AlgebraicQ3i:
        return self + (-_promote(other))

    def __rsub__(self, other: AlgebraicQ3i | RationalLike) -> AlgebraicQ3i:
        return _promote(other) - self

    def __mul__(self, other: AlgebraicQ3i | RationalLike) -> AlgebraicQ3i:
        a1, b1, c1, d1 = self
        a2, b2, c2, d2 = _promote(other)
        return tuple.__new__(AlgebraicQ3i, (
            a1 * a2 + 3 * b1 * b2 - c1 * c2 - 3 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        ))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> AlgebraicQ3i:
        """Binary exponentiation from the top bit; exponent must be a nonnegative integer.

        Each bit squares the result, and a 1 bit then multiplies it by self,
        which stays small: the squarings are the only big-by-big products.
        """
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = ONE
        for bit in bin(exponent)[2:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def conjugate(self) -> AlgebraicQ3i:
        """Complex conjugate: i -> -i, i.e. (a, b, c, d) -> (a, b, -c, -d)."""
        return tuple.__new__(AlgebraicQ3i, (self.a, self.b, -self.c, -self.d))

    def to_integer(self) -> int | Decimal:
        """Convert to a plain integer, or raise ValueError.

        One rule for every coordinate type: the sqrt3, i and i*sqrt3
        coordinates must vanish, and divmod(a, 1) must leave no remainder;
        its quotient is the value, an int for an int or a Fraction and a
        Decimal for a Decimal.  A Decimal divides in the current context,
        which signals when the quotient has more digits than its precision,
        as for a value rounded in the 28-digit default context.  A failure
        here means some formula upstream was transcribed wrongly, so the
        error is loud on purpose.
        """
        if self.b or self.c or self.d:
            raise ValueError(f"{self} has irrational or imaginary parts")
        quotient, remainder = divmod(self.a, 1)
        if remainder:
            raise ValueError(f"{self} is not an integer")
        return quotient

    def __str__(self) -> str:
        terms = ((self.a, ""), (self.b, "*sqrt3"), (self.c, "*i"), (self.d, "*i*sqrt3"))
        parts = [f"{brief(coord)}{symbol}" for coord, symbol in terms if coord]
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _promote(value: AlgebraicQ3i | RationalLike) -> AlgebraicQ3i:
    if isinstance(value, AlgebraicQ3i):
        return value
    if isinstance(value, (Rational, Decimal)):
        return tuple.__new__(AlgebraicQ3i, (value, 0, 0, 0))
    raise TypeError(f"a ring element does not combine with {type(value).__name__!r}")


ZERO = AlgebraicQ3i()
ONE = AlgebraicQ3i(1)
SQRT3 = AlgebraicQ3i(0, 1)
I = AlgebraicQ3i(0, 0, 1)
I_SQRT3 = AlgebraicQ3i(0, 0, 0, 1)


def i_power(n: int) -> AlgebraicQ3i:
    """i**n for any integer n, via the period-4 cycle (1, i, -1, -i)."""
    return (ONE, I, -ONE, -I)[n % 4]


def sqrt3_power(e: int, num: Callable[[int], RationalLike] = int) -> AlgebraicQ3i:
    """3**(e/2) as a ring element: an integer for even e, 3**((e-1)/2)*sqrt3 for odd e; the power is of type num."""
    if e < 0:
        raise ValueError(f"exponent must be nonnegative, got {e}")
    if e % 2 == 0:
        return AlgebraicQ3i(num(3) ** (e // 2))
    return AlgebraicQ3i(0, num(3) ** ((e - 1) // 2))
