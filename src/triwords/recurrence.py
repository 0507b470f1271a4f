"""Coupled and decoupled recurrences for the four class counts.

Appending three letters to a word of length 3n multiplies the number of
words by 27 and moves counts between classes: three equal letters keep the
class, three distinct letters rotate A -> B -> C -> A, and any other triple
lands in D.  Written as one linear step this is the coupled system

    A(n) =  3*A(n-1)             +  6*C(n-1) + 3*D(n-1)
    B(n) =  6*A(n-1) +  3*B(n-1)             + 3*D(n-1)
    C(n) =              6*B(n-1) +  3*C(n-1) + 3*D(n-1)
    D(n) = 18*(A(n-1) + B(n-1) + C(n-1) + D(n-1))

Eliminating variables decouples it: A, B and C each satisfy

    x(n) = 27*(x(n-1) - x(n-2) + 27*x(n-3))        for n >= 4,

differing only in their initial values, while D(n) = 27*D(n-1).  Class C
additionally satisfies a fourth-order recurrence whose characteristic
polynomial factors as (x + 1) times the one above; the extra root -1 is
spurious (it cannot match the initial values), which is how the shared
third-order recurrence is identified in the first place.

This module writes each recurrence once, as its seed values and one step
over a window of the latest values (DECOUPLED, QUARTIC_C).  Item n alone
comes from a point route in O(log n) big products: recurrence_at reduces
t^(n-1) modulo the characteristic polynomial (Fiduccia), which char_poly
reads off the step, as char_poly_check does, and decoupled_at reduces it
once for A, B and C; coupled_at powers the transition matrix.  That
matrix commutes with the relabelling A -> B -> C -> A, so each of its
powers is fixed by six entries, which coupled_at reads off it after
checking the commutation; a squaring then takes 16 big products, not
64.  The registry runs rows from any lo by counting.stepped: point
values until the step's window is full, then coupled_step, or each
recurrence's own step on its column (recurrences_step), so only the
point routes read the seeds.  Rows and point routes alike take the
number type of their seeds, `num`: int by default, or `decimal.Decimal`
for output, whose text is linear time and whose large products use a
number-theoretic transform (the caller then reads it in `digits.EXACT`).
Every route starts from num seeds and num constants, and mixes its
values only with small ints, so no computed int is ever converted.  The
relations that validate prints are stated here once, as plain text: C's
factorisation (CHAR_POLY_RELATION) and every intermediate elimination
identity (IDENTITY_RELATIONS).  `relations` reads and checks them, so
only the command that checks a relation, validate, compiles the reader.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence, TypeVar

from .counting import ClassLabel, ClassVector, InternalError, columns, require_nonnegative, stepped

T = TypeVar("T")

# Row order A, B, C, D; row dot (A, B, C, D) at n-1 gives the count at n.
# Every column sums to 27: three added letters scale the total by 27.
TRANSITION_MATRIX: tuple[tuple[int, int, int, int], ...] = (
    (3, 0, 6, 3),
    (6, 3, 0, 3),
    (0, 6, 3, 3),
    (18, 18, 18, 18),
)

# Each recurrence is written once, as (seeds, step): the seeds x(0..d), and
# a step from a window of the latest values to the next, run from n = d + 1.
Recurrence = tuple[Sequence[int], Callable[[Sequence[T]], T]]


def _cubic_step(w: Sequence[T]) -> T:
    """x(n) = 27*(x(n-1) - x(n-2) + 27*x(n-3)), shared by A, B and C."""
    return 27 * (w[-1] - w[-2] + 27 * w[-3])


# The cubic holds from n = 4: x(0) sits off its backward extension (which
# would need A(0) = 7/9 etc.).  D(n) = 27*D(n-1) holds from n = 2.
DECOUPLED: dict[ClassLabel, Recurrence] = {
    ClassLabel.A: ((1, 3, 63, 2187), _cubic_step),
    ClassLabel.B: ((0, 6, 90, 2106), _cubic_step),
    ClassLabel.C: ((0, 0, 90, 2268), _cubic_step),
    ClassLabel.D: ((0, 18), lambda w: 27 * w[-1]),
}

# C's quartic, (t + 1) times the cubic: its residual at n is the sum of two
# cubic residuals, so it first holds at n = 5 and C(4) = 58806 is a seed.
QUARTIC_C: Recurrence = ((0, 0, 90, 2268, 58806), lambda w: 26 * w[-1] + 702 * w[-3] + 729 * w[-4])


class NotRelabellingInvariant(InternalError):
    """The transition matrix does not commute with the relabelling A -> B -> C -> A."""


def coupled_step(v: ClassVector) -> ClassVector:
    """Advance the four class counts from index n to n + 1."""
    vals = v.as_tuple()
    return ClassVector(v.n + 1, *(sum(map(operator.mul, row, vals)) for row in TRANSITION_MATRIX))


# A matrix over the classes (A, B, C, D) that commutes with A -> B -> C -> A
# is [[circ(a, b, c), e*1], [f*1^T, g]]: its A-C block is circulant, entry
# (i, j) = (a, b, c)[(j - i) % 3], its D column is e and its D row f on A-C.
Six = tuple[T, T, T, T, T, T]


def six_entries(matrix: Sequence[Sequence[int]]) -> Six:
    """(a, b, c, e, f, g) of a 4x4 matrix that commutes with A -> B -> C -> A, or raise NotRelabellingInvariant."""
    relabel = (1, 2, 0, 3)
    if any(matrix[relabel[i]][relabel[j]] != matrix[i][j] for i in range(4) for j in range(4)):
        raise NotRelabellingInvariant(f"{matrix} does not commute with the relabelling A -> B -> C -> A")
    a, b, c, e = matrix[0]
    return a, b, c, e, matrix[3][0], matrix[3][3]


def _six_mul(x: Six, y: Six) -> Six:
    """The product of two matrices in six-entry form, in 16 products: the circulant blocks convolve cyclically."""
    a1, b1, c1, e1, f1, g1 = x
    a2, b2, c2, e2, f2, g2 = y
    ef = e1 * f2
    return (
        a1 * a2 + b1 * c2 + c1 * b2 + ef,
        a1 * b2 + b1 * a2 + c1 * c2 + ef,
        a1 * c2 + b1 * b2 + c1 * a2 + ef,
        (a1 + b1 + c1) * e2 + e1 * g2,
        f1 * (a2 + b2 + c2) + g1 * f2,
        3 * f1 * e2 + g1 * g2,
    )


def coupled_at(n: int, num: Callable[[int], T] = int) -> ClassVector:
    """The class vector at n, as num: TRANSITION_MATRIX^n applied to the seed (1, 0, 0, 0), by binary powering.

    The powers are kept in six-entry form (see six_entries), so the
    vector is column A of the power, (a, c, b, f).
    """
    require_nonnegative(n)
    step = tuple(map(num, six_entries(TRANSITION_MATRIX)))
    zero, one = num(0), num(1)
    power = (one, zero, zero, zero, zero, one)
    for bit in bin(n)[2:]:
        power = _six_mul(power, power)
        if bit == "1":
            power = _six_mul(power, step)
    a, b, c, _, f, _ = power
    return ClassVector(n, a, c, b, f)


def char_poly(seeds: Sequence[int], step: Callable[[Sequence[int]], int]) -> tuple[int, ...]:
    """The monic characteristic polynomial, ascending, of the recurrence (seeds, step).

    The step is linear, so on the k-th unit window of d = len(seeds) - 1
    values it gives the coefficient of x(n - d + k).
    """
    d = len(seeds) - 1
    return (*(-step(tuple(int(j == k) for j in range(d))) for k in range(d)), 1)


def _square(p: Sequence[T]) -> list[T]:
    """p(t)^2, ascending: a square per coefficient and one product per pair, not len(p)^2 products."""
    out = [0] * (2 * len(p) - 1)
    for i, pi in enumerate(p):
        out[2 * i] += pi * pi
        twice = 2 * pi
        for j in range(i + 1, len(p)):
            out[i + j] += twice * p[j]
    return out


def recurrence_at(
    seeds: Sequence[int], step: Callable[[Sequence[int]], int], n: int, num: Callable[[int], T] = int
) -> T:
    """Item n of the recurrence (seeds, step), as num, in O(log n) products (Fiduccia).

    The recurrence holds from n = d + 1, d = len(seeds) - 1, and x(0) is
    off it.  So with t^(n-1) mod char_poly(seeds, step) = sum c_k t^k,
    x(n) = sum c_k x(k + 1), with the seeds taken as num.
    """
    return _recurrences_at(((seeds, step),), n, num)[0]


def _recurrences_at(recurrences: Sequence[Recurrence], n: int, num: Callable[[int], T]) -> tuple[T, ...]:
    """Item n of each recurrence, as num (see recurrence_at): one residue for each distinct polynomial."""
    require_nonnegative(n)
    if n == 0:
        return tuple(num(seeds[0]) for seeds, _ in recurrences)
    polys = [char_poly(*recurrence) for recurrence in recurrences]
    residues = {poly: _residue(poly, n - 1, num) for poly in set(polys)}
    return tuple(sum(map(operator.mul, residues[p], map(num, s[1:]))) for p, (s, _) in zip(polys, recurrences))


def _residue(poly: tuple[int, ...], e: int, num: Callable[[int], T]) -> tuple[T, ...]:
    """t^e mod the monic poly, ascending, from num(1); the small int coefficients of poly stay ints."""
    d = len(poly) - 1
    residue: list[T] = [num(1)]
    for bit in bin(e)[2:]:
        # Square, times t on a 1 bit, then reduce by t^d = -(p_0 + p_1 t + ... + p_(d-1) t^(d-1)).
        residue = [0] * int(bit) + _square(residue)
        while len(residue) > d:
            top = residue.pop()
            for j, p in enumerate(poly[:-1], len(residue) - d):
                residue[j] -= top * p
    return tuple(residue)


def decoupled_at(labels: Sequence[ClassLabel], n: int, num: Callable[[int], T] = int) -> tuple[T, ...]:
    """C_label(n) for each label, as num, each by its class's own decoupled recurrence; A, B and C share one residue."""
    return _recurrences_at([DECOUPLED[label] for label in labels], n, num)


def recurrences_step(recurrences: Sequence[Recurrence]) -> tuple[int, Callable[[Sequence[tuple]], tuple]]:
    """(order, next) of a row of recurrences (seeds, step): the widest window, and each step on its column."""
    return max(len(seeds) for seeds, _ in recurrences), columns([step for _, step in recurrences])


def coupled_sequence(N: int) -> list[ClassVector]:
    """Class vectors for n = 0..N, stepped from the seed (1, 0, 0, 0)."""
    require_nonnegative(N, "N")
    return list(stepped(coupled_at, 1, lambda w: coupled_step(w[-1]), 0, N))


def decoupled_third_order(label: ClassLabel, n: int) -> int:
    """Class count via the shared third-order recurrence (classes A, B, C)."""
    if label is ClassLabel.D:
        raise ValueError("third-order engine covers classes A, B, C; use decoupled_d for D")
    return decoupled_at((label,), n)[0]


def decoupled_d(n: int) -> int:
    """Class count for D: D(n) = 27*D(n-1) with D(1) = 18, and D(0) = 0."""
    return decoupled_at((ClassLabel.D,), n)[0]


def quartic_c(n: int, num: Callable[[int], T] = int) -> T:
    """Class count for C via its fourth-order recurrence (see QUARTIC_C), as num."""
    return recurrence_at(*QUARTIC_C, n, num)


# C's quartic is (x + 1) times the cubic that A, B and C share, stated once
# as the relation validate prints; relations.char_poly_check reads both sides off it.
CHAR_POLY_RELATION = "x^4 - 26x^3 - 702x - 729 = (x+1)(x^3 - 27(x^2 - x + 27))"


# Elimination identities tying the four sequences together, each stated
# once as (name, relation), the text validate prints.  relations reads the
# rest off that text: the residual, right side minus left side, 0 wherever
# the identity holds, and the window of valid indices, those where every
# referenced term exists: first_valid <= n <= N - lookahead.
IDENTITY_RELATIONS: tuple[tuple[str, str], ...] = (
    ("d-prev-from-ab", "3*D(n-1) = B(n) - 3*B(n-1) - 6*A(n-1)"),
    ("c-from-ab-window", "54*C(n) = -6*A(n+1) + 54*A(n) - 21*B(n+1) + B(n+2)"),
    ("c-step-sans-d", "6*A(n-1) - B(n) - 3*B(n-1) + C(n) - 3*C(n-1) = 0"),
    ("ab-window-wide", "6*A(n+1) - 72*A(n) - 162*A(n-1) - B(n+2) + 24*B(n+1) - 9*B(n) + 162*B(n-1) = 0"),
    ("a-step-sans-d", "A(n) + 3*A(n-1) - B(n) + 3*B(n-1) - 6*C(n-1) = 0"),
    ("ab-window-narrow", "15*A(n) - 27*A(n-1) - B(n+1) + 12*B(n) + 27*B(n-1) = 0"),
    ("d-minus-3c", "D(n) - 3*C(n) = 9*(2*A(n-1) + C(n-1) + D(n-1))"),
    ("cd-window-a", "3*C(n+1) + 81*C(n-1) - D(n+1) + 12*D(n) + 27*D(n-1) = 0"),
    ("cd-window-b", "C(n+1) + 27*C(n-1) - 5*D(n) + 9*D(n-1) = 0"),
)
