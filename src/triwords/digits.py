"""Decimal size and short text of big numbers, free of CPython's int-to-str cap."""

from numbers import Rational

FULL_DIGITS = 40  # message text shows an integer up to this long in full, a longer one by its size


def decimal_digits(n: int) -> int:
    """Decimal digit count of |n| without str(), which CPython caps by default.

    The bit length bounds floor(log10 n) within one, and a single big-power
    comparison settles which side we are on.
    """
    n = abs(n)
    if n == 0:
        return 1
    candidate = max(1, (n.bit_length() * 30103) // 100000)
    return candidate if n < 10**candidate else candidate + 1


def brief(q: Rational) -> str:
    """q in decimal, as a/b unless an integer; a part past FULL_DIGITS digits shows as its digit count."""
    if q.denominator != 1:
        return f"{brief(q.numerator)}/{brief(q.denominator)}"
    k = decimal_digits(q.numerator)
    return str(q.numerator) if k <= FULL_DIGITS else f"{'-' * (q < 0)}<{k} digits>"
