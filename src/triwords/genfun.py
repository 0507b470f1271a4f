"""Rational generating functions for the class counts.

Each class count sequence has a rational generating function
g(x) = sum_n C(n) x^n:

    g_A(x) = (162x^3 - 9x^2 + 24x - 1) / ((27x - 1)(27x^2 + 1))
    g_B(x) = 6x(27x^2 + 12x - 1)      / ((27x - 1)(27x^2 + 1))
    g_C(x) = 18x^2(5 - 9x)            / ((1 - 27x)(1 + 27x^2))
    g_D(x) = 18x                      / (1 - 27x)

Polynomials are stored as ascending coefficient tuples with no trailing
zeros.  Both factorings of the shared denominator expand, after sign
normalisation, to 1 - 27x + 27x^2 - 729x^3, whose reversed coefficients
are exactly the shared third-order recurrence; coefficient extraction
from these functions is therefore a sixth independent compute engine:
gf_stream reads coefficients in order, gf_at one by Bostan-Mori halving.
"""

from __future__ import annotations

from collections import deque, namedtuple
from itertools import count, islice
from typing import Callable, Iterator, TypeVar

from .counting import ClassLabel, InternalError

#: Polynomial with integer coefficients, ascending, index = degree.
IntPolynomial = tuple[int, ...]

T = TypeVar("T")


class NonUnitConstantTerm(InternalError):
    """Coefficient extraction needs a denominator constant term of +-1 to stay integral."""


def poly_trim(coeffs) -> IntPolynomial:
    """Drop trailing zero coefficients so the degree is canonical."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_mul(p, q) -> IntPolynomial:
    """Exact product of two integer coefficient lists."""
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return tuple(out)


class RationalGF(namedtuple("RationalGF", "numerator denominator")):
    """A rational generating function numerator/denominator pair, each trimmed by poly_trim."""

    __slots__ = ()

    def __new__(cls, numerator, denominator) -> RationalGF:
        numerator, denominator = poly_trim(numerator), poly_trim(denominator)
        if not denominator or denominator[0] == 0:
            raise ValueError("denominator must have a nonzero constant term")
        return super().__new__(cls, numerator, denominator)


# Numerators and denominators kept in factored form; expansion and sign
# normalisation happen below.
_GF_FACTORS: dict[ClassLabel, tuple[IntPolynomial, tuple[IntPolynomial, ...]]] = {
    ClassLabel.A: ((-1, 24, -9, 162), ((-1, 27), (1, 0, 27))),
    ClassLabel.B: ((0, -6, 72, 162), ((-1, 27), (1, 0, 27))),
    ClassLabel.C: ((0, 0, 90, -162), ((1, -27), (1, 0, 27))),
    ClassLabel.D: ((0, 18), ((1, -27),)),
}


def gf_for_class(label: ClassLabel) -> RationalGF:
    """The generating function of a class, denominator expanded and normalised."""
    numerator, factors = _GF_FACTORS[label]
    denominator: IntPolynomial = (1,)
    for factor in factors:
        denominator = poly_mul(denominator, factor)
    # Flip both signs when the denominator's constant term is negative, so
    # the two factor orderings (27x - 1) vs (1 - 27x) store identically.
    if denominator[0] < 0:
        numerator = tuple(-c for c in numerator)
        denominator = tuple(-c for c in denominator)
    return RationalGF(numerator, denominator)


def _unit_constant_term(gf: RationalGF) -> int:
    """The denominator's constant term q_0; NonUnitConstantTerm unless it is +-1, which keeps coefficients integral."""
    q0 = gf.denominator[0]
    if q0 not in (1, -1):
        raise NonUnitConstantTerm(f"denominator constant term is {q0}, need +-1")
    return q0


def gf_stream(gf: RationalGF, num: Callable[[int], T] = int) -> Iterator[T]:
    """Taylor coefficients c_0, c_1, c_2, ... of a rational generating function.

    Uses the linear recursion q_0*c_n = p_n - sum_{j>=1} q_j*c_{n-j}; with
    |q_0| = 1 every coefficient stays an exact integer.  The numerator
    coefficients p_n are taken as num, so the c_n are of that type too.
    """
    q = gf.denominator
    p = tuple(map(num, gf.numerator))
    zero = num(0)
    q0 = _unit_constant_term(gf)
    recent: deque[T] = deque(maxlen=len(q) - 1)  # c_{n-1}, c_{n-2}, ...
    for n in count():
        acc = p[n] if n < len(p) else zero
        for qj, cj in zip(q[1:], recent):
            acc -= qj * cj
        c = acc * q0  # dividing by +-1
        recent.appendleft(c)
        yield c


def gf_coefficients(gf: RationalGF, N: int) -> list[int]:
    """Taylor coefficients c_0..c_N of a rational generating function (see gf_stream)."""
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    return list(islice(gf_stream(gf), N + 1))


def _half_product(p, q, parity: int, terms: int) -> IntPolynomial:
    """The first `terms` coefficients of x^parity, x^(parity + 2), ... in p(x)q(-x)."""
    q_minus = [-c if j % 2 else c for j, c in enumerate(q)]
    last = min(len(p) + len(q) - 2, parity + 2 * (terms - 1))
    return tuple(
        sum(p[i] * q_minus[k - i] for i in range(max(0, k - len(q) + 1), min(k, len(p) - 1) + 1))
        for k in range(parity, last + 1, 2)
    )


def gf_at(gf: RationalGF, n: int, num: Callable[[int], T] = int) -> T:
    """Taylor coefficient c_n of a rational generating function P/Q, in O(log n) products (Bostan-Mori).

    P/Q = P(x)Q(-x) / V(x^2) with V(x^2) = Q(x)Q(-x), so c_n is c_(n//2) of
    the even (n even) or odd part of P(x)Q(-x), over V, down to c_0 = P(0)/Q(0).
    Only the coefficients that can reach c_(n//2) are computed: the half of
    each product of the right parity, up to degree n//2.  The coefficients
    of P and Q are taken as num, so c_n is of that type too.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    _unit_constant_term(gf)
    p, q = tuple(map(num, gf.numerator)), tuple(map(num, gf.denominator))
    while n:
        terms = n // 2 + 1
        p, q = _half_product(p, q, n % 2, terms), _half_product(q, q, 0, terms)
        n //= 2
    return p[0] * q[0] if p else num(0)  # dividing by q_0 = +-1
