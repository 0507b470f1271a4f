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
gf_at gives one n by Bostan-Mori halving, in one chain for each distinct
denominator, which A, B and C share; gf_step steps a run of rows on
from gf_at's values at any n, by each denominator's recursion.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul
from typing import Callable, Sequence, TypeVar

from .counting import ClassLabel, InternalError, columns, require_nonnegative, stepped

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


def _half_product(p, q, parity: int, terms: int) -> IntPolynomial:
    """The first `terms` coefficients of x^parity, x^(parity + 2), ... in p(x)q(-x)."""
    q_minus = [-c if j % 2 else c for j, c in enumerate(q)]
    last = min(len(p) + len(q) - 2, parity + 2 * (terms - 1))
    return tuple(
        sum(p[i] * q_minus[k - i] for i in range(max(0, k - len(q) + 1), min(k, len(p) - 1) + 1))
        for k in range(parity, last + 1, 2)
    )


def gf_at(gfs: Sequence[RationalGF], n: int, num: Callable[[int], T] = int) -> tuple[T, ...]:
    """Taylor coefficient c_n of each rational generating function P/Q, in O(log n) products (Bostan-Mori).

    P/Q = P(x)Q(-x) / V(x^2) with V(x^2) = Q(x)Q(-x), so c_n is c_(n//2) of
    the even (n even) or odd part of P(x)Q(-x), over V, down to c_0 = P(0)/Q(0).
    Only the coefficients that can reach c_(n//2) are computed: the half of
    each product of the right parity, up to degree n//2, once per distinct Q
    with every P over it.  P and Q are taken as num, and so is each c_n.
    """
    require_nonnegative(n)
    over: dict[IntPolynomial, list[RationalGF]] = {}  # each denominator, with the functions over it
    for gf in gfs:
        _unit_constant_term(gf)
        over.setdefault(gf.denominator, []).append(gf)
    coefficients = {}
    for q, group in over.items():
        q, ps = tuple(map(num, q)), [tuple(map(num, gf.numerator)) for gf in group]
        for k in (n >> j for j in range(n.bit_length())):  # n, n//2, ..., 1
            terms = k // 2 + 1
            ps, q = [_half_product(p, q, k % 2, terms) for p in ps], _half_product(q, q, 0, terms)
        coefficients.update((gf, p[0] * q[0] if p else num(0)) for gf, p in zip(group, ps))  # dividing by q_0 = +-1
    return tuple(map(coefficients.__getitem__, gfs))


def gf_step(gfs: Sequence[RationalGF]) -> tuple[int, Callable[[Sequence[tuple]], tuple]]:
    """(order, next) of a row of the c_n of each P/Q: the window past every P, and each Q's recursion.

    Past P, q_0*c_n = -sum_{j>=1} q_j*c_{n-j}; with |q_0| = 1 every c_n stays an exact integer.
    """
    order = max(max(len(gf.denominator) - 1, len(gf.numerator)) for gf in gfs)
    return order, columns([_denominator_step(gf) for gf in gfs])


def _denominator_step(gf: RationalGF) -> Callable[[Sequence[T]], T]:
    q, q0 = gf.denominator[1:], _unit_constant_term(gf)
    # dividing by q0 = +-1, after negating the sum, so that a Decimal zero stays unsigned where q0 = 1
    return lambda w: -sum(map(mul, q, reversed(w))) * q0


def gf_coefficients(gf: RationalGF, N: int) -> list[int]:
    """Taylor coefficients c_0..c_N of a rational generating function: gf_at, then gf_step."""
    require_nonnegative(N, "N")
    return [c for c, in stepped(lambda n: gf_at((gf,), n), *gf_step((gf,)), 0, N)]
