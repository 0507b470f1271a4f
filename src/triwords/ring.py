"""Exact arithmetic in the ring Q(i, sqrt(3)).

Elements are stored in the basis (1, sqrt3, i, i*sqrt3) with rational
coordinates, so every element has exactly one representation and equality
is coordinate equality.  A coordinate is any `numbers.Rational`, such as an
int or a `fractions.Fraction`, or a `decimal.Decimal`, kept as given; Python
makes 3 == Fraction(3) == Decimal(3) with equal hashes, so equal values
compare and hash equal whichever type they hold.  The engine paths use ints,
or Decimals in the exact context `digits.EXACT` when a value is computed to
be printed; the closed forms clear their denominators, so this module never
imports `fractions`.  The multiplication table is

    sqrt3 * sqrt3 = 3          i * i = -1
    sqrt3 * i     = i*sqrt3    (i*sqrt3) * (i*sqrt3) = -3
    sqrt3 * (i*sqrt3) = 3*i    i * (i*sqrt3) = -sqrt3

This is just enough structure to evaluate n-th powers of the recurrence
roots 27 and +-3*sqrt(3)*i and the Z[i, sqrt3] coefficients that multiply
them, with no floating point anywhere.
"""

from __future__ import annotations

from decimal import Decimal
from numbers import Rational
from typing import Callable

from .counting import InternalError
from .digits import brief


class NotRationalInteger(InternalError):
    """Raised when an element expected to be a plain integer is not one."""


RationalLike = Rational | Decimal


class AlgebraicQ3i:
    """An element a + b*sqrt3 + c*i + d*i*sqrt3 with rational (int, Fraction, Decimal, ...) coordinates.

    Immutable: its coordinates are set once, and equality and hash are those of the coordinate tuple.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, c: RationalLike = 0, d: RationalLike = 0):
        object.__setattr__(self, "a", a)  # past __setattr__, which refuses assignment
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _coords(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._coords() == other._coords()

    def __hash__(self) -> int:
        return hash(self._coords())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__, as assignment is refused
        return type(self), self._coords()

    def __add__(self, other: AlgebraicQ3i | RationalLike) -> AlgebraicQ3i:
        o = _promote(other)
        if o is None:
            return NotImplemented
        return _make(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __neg__(self) -> AlgebraicQ3i:
        return _make(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other: AlgebraicQ3i | RationalLike) -> AlgebraicQ3i:
        o = _promote(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: AlgebraicQ3i | RationalLike) -> AlgebraicQ3i:
        o = _promote(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: AlgebraicQ3i | RationalLike) -> AlgebraicQ3i:
        o = _promote(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        return _make(
            a1 * a2 + 3 * b1 * b2 - c1 * c2 - 3 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> AlgebraicQ3i:
        """Binary exponentiation; exponent must be a nonnegative integer."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> AlgebraicQ3i:
        """Complex conjugate: i -> -i, i.e. (a, b, c, d) -> (a, b, -c, -d)."""
        return _make(self.a, self.b, -self.c, -self.d)

    def to_integer(self) -> int | Decimal:
        """Convert to a plain integer, or raise NotRationalInteger.

        Succeeds only when the sqrt3, i and i*sqrt3 coordinates all vanish
        and the remaining rational is an integer: an int for a rational
        coordinate, a Decimal for a Decimal one.  A failure here means some
        formula upstream was transcribed wrongly, so the error is loud on
        purpose.
        """
        if self.b or self.c or self.d:
            raise NotRationalInteger(f"{self} has irrational or imaginary parts")
        a = self.a
        if isinstance(a, Decimal):
            if a != a.to_integral_value():
                raise NotRationalInteger(f"{self} is not an integer")
            return a
        if a.denominator != 1:
            raise NotRationalInteger(f"{self} is not an integer")
        return a.numerator

    def __str__(self) -> str:
        terms = ((self.a, ""), (self.b, "*sqrt3"), (self.c, "*i"), (self.d, "*i*sqrt3"))
        parts = [f"{brief(coord)}{symbol}" for coord, symbol in terms if coord]
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


_new = object.__new__
_set_a, _set_b, _set_c, _set_d = (getattr(AlgebraicQ3i, slot).__set__ for slot in AlgebraicQ3i.__slots__)


def _make(a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike) -> AlgebraicQ3i:
    """AlgebraicQ3i(a, b, c, d) for the arithmetic: the slots' own setters, past __init__'s object.__setattr__."""
    x = _new(AlgebraicQ3i)
    _set_a(x, a)
    _set_b(x, b)
    _set_c(x, c)
    _set_d(x, d)
    return x


def _promote(value: AlgebraicQ3i | RationalLike) -> AlgebraicQ3i | None:
    if isinstance(value, AlgebraicQ3i):
        return value
    if isinstance(value, (Rational, Decimal)):
        return _make(value, 0, 0, 0)
    return None


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
