"""Decimal text of big integers: full renderings, piecewise writing, digit counts and short forms.

CPython's `str(int)` takes time quadratic in the digit count before 3.12,
and the paper's counts have about 1.43·n digits, so a value at n = 3·10⁵
would spend seconds in `str()` after milliseconds of arithmetic.  So
every value the CLI prints is an exact `Decimal`, whose `str()` is linear
time; the enumerators `brute` and `compsum` run faster on ints, and the
engine registry converts their values to `Decimal`.

`to_decimal` renders one int in full, for a caller that holds an int; no
command calls it.  Past STR_BITS it converts by
divide and conquer over the bits, evaluated in stdlib `decimal`
(libmpdec), whose large products are sub-quadratic: the method of CPython
3.12's `Lib/_pylong.py` (gh-90716).  STR_BITS is small enough that no
int-to-str cap CPython accepts stops the `str()` below it, so the result
does not depend on that cap: no caller has to lift it.

`EXACT` is the one `decimal` context in which the package computes: the
largest precision and exponent range `decimal` has, with `Inexact`
trapped.  Integer sums, products and powers never round in it, and if one
ever needed to, the trap would raise instead of silently changing a digit.
`to_decimal` evaluates in it, and so does every engine when the CLI runs it
on Decimals to print its values: `str(Decimal)` is linear time, because
libmpdec already stores base-10¹⁹ limbs, and past about a megabit libmpdec
multiplies by a number-theoretic transform where ints use Karatsuba.

`decimal_digits` and `brief` take an int or a Decimal, so neither ever
converts one into the other.  `write_decimal` writes `str()` of a Decimal
in pieces, so no huge value's whole text (five times its memory) is held.
"""

import decimal
from numbers import Rational
from typing import Callable

FULL_DIGITS = 40  # message text shows an integer up to this long in full, a longer one by its size

# Up to STR_BITS bits plain str().  2**2126 < 10**640, so these values have
# at most 640 digits, the lowest int-to-str cap CPython lets anyone set
# (sys.int_info.str_digits_check_threshold).
STR_BITS = 2126
# The split stops at pieces this short; Decimal(int) converts them directly.
LEAF_BITS = 3000
PIECE_DIGITS = 2**14  # write_decimal writes a longer value in pieces of at most this many digits

# Enter it with decimal.localcontext(EXACT), which works on a copy, so the
# flags one computation raises never reach this shared object.
EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow, decimal.Inexact],
)


def to_decimal(n: int) -> str:
    """str(n), byte for byte, in sub-quadratic time for large n.

    Up to STR_BITS bits this is str(n).  Past it, n = hi·2^h + lo with
    h = w // 2 for a w-bit n, recursively, down to pieces of at most
    LEAF_BITS bits; the pieces and the powers 2^h (each computed once) are
    recombined as hi·2^h + lo in `decimal`, in the EXACT context, so any
    rounding would raise instead of changing a digit.  Every operand is an
    integer with exponent 0, so the result's string has no exponent and no
    trailing-zero form.
    """
    if n.bit_length() <= STR_BITS:
        return str(n)
    two = decimal.Decimal(2)
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        """2**w as a Decimal, cached; each large one is a product of two halves."""
        result = powers.get(w)
        if result is None:
            if w <= LEAF_BITS:
                result = two**w
            else:
                result = power(w >> 1) * power(w - (w >> 1))
            powers[w] = result
        return result

    def convert(m: int, w: int) -> decimal.Decimal:
        """m, a nonnegative int below 2**w, as a Decimal."""
        if w <= LEAF_BITS:
            return decimal.Decimal(m)
        h = w >> 1
        hi = m >> h
        return convert(hi, w - h) * power(h) + convert(m - (hi << h), h)

    with decimal.localcontext(EXACT):
        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def write_decimal(value: decimal.Decimal, write: Callable[[str], object]) -> None:
    """Pass str(value) to write, a nonnegative integer with exponent 0 in pieces of at most PIECE_DIGITS digits.

    A piece w digits wide splits exactly, in EXACT, into its high w - w // 2
    digits, by scaleb and truncation, and the rest, written zero-padded; the
    halves waiting on the stack add up to about one more copy of the value.
    """
    integral = not value.is_signed() and value.same_quantum(1)  # else one piece, str(value)
    with decimal.localcontext(EXACT):
        pending = [(value, decimal_digits(value) if integral else 0)]
        while pending:
            piece, width = pending.pop()
            if width <= PIECE_DIGITS:
                write(str(piece).zfill(width))
                continue
            low = width // 2
            high = piece.scaleb(-low).to_integral_value(decimal.ROUND_DOWN)
            pending += ((piece - high.scaleb(low), low), (high, width - low))


def decimal_digits(n: int | decimal.Decimal) -> int:
    """Decimal digit count of |n|, an int or an integral Decimal, without str(), which CPython caps by default.

    A Decimal knows its own exponent: an integer has adjusted() + 1
    digits.  For an int, the bit length bounds floor(log10 n) within one,
    and a single big-power comparison settles which side we are on.
    """
    if isinstance(n, decimal.Decimal):
        return n.adjusted() + 1
    n = abs(n)
    if n == 0:
        return 1
    candidate = max(1, (n.bit_length() * 30103) // 100000)
    return candidate if n < 10**candidate else candidate + 1


def brief(q: Rational | decimal.Decimal) -> str:
    """q in decimal, as a/b unless an integer or a Decimal; a part past FULL_DIGITS digits shows as its digit count."""
    if isinstance(q, decimal.Decimal):
        k = decimal_digits(q)
        return str(q) if k <= FULL_DIGITS else f"{'-' * q.is_signed()}<{k} digits>"
    if q.denominator != 1:
        return f"{brief(q.numerator)}/{brief(q.denominator)}"
    k = decimal_digits(q.numerator)
    return str(q.numerator) if k <= FULL_DIGITS else f"{'-' * (q < 0)}<{k} digits>"
