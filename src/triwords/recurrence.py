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
over a window of the latest values (DECOUPLED, QUARTIC_C); a single
runner, _recurrence, iterates them all into streams from n = 0, for runs
of rows.  Item n alone comes from a point route in O(log n) big products:
recurrence_at reduces t^(n-1) modulo the characteristic polynomial
(Fiduccia), which char_poly reads off the step, as char_poly_check does,
and keeps the last residue, which A, B and C share; coupled_at powers
the transition matrix.  That matrix commutes with the relabelling
A -> B -> C -> A, so each of its powers is fixed by six entries, which
coupled_at reads off it after checking the commutation; a squaring then
takes 16 big products, not 64.  Streams and point routes
alike take the number type of their seeds, `num`: int by default, or
`decimal.Decimal` for output, whose text is linear time and whose large
products use a number-theoretic transform (the caller then reads it in
`digits.EXACT`).  Every route starts from num seeds and num constants,
and mixes its values only with small ints, so no computed int is ever
converted.  The module also checks every intermediate elimination identity
numerically, in exact integer arithmetic.  Each is stated once, as the
relation validate prints, and so is C's factorisation (CHAR_POLY_RELATION).
One reader, _read, takes these texts as data and never runs them (no eval):
it parses a text and walks a closed grammar into polynomials.  An identity's
residual, right side minus left side, is the sum over its linear form, and
its window of valid indices spans the form's offsets.  IDENTITIES is built
on first use, so only the commands that check the identities load the parser.
"""

from __future__ import annotations

import decimal
import operator
import re
from collections import deque, namedtuple
from functools import lru_cache, reduce
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from .counting import ClassLabel, ClassVector, InternalError, require_nonnegative
from .digits import brief

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


class IdentityViolation(Exception):
    """An elimination identity failed numerically at some index."""

    def __init__(self, name: str, n: int, residual: int):
        self.name = name
        self.n = n
        self.residual = residual
        super().__init__(f"identity {name!r} fails at n = {n} (residual {brief(residual)})")


def coupled_step(v: ClassVector) -> ClassVector:
    """Advance the four class counts from index n to n + 1."""
    vals = v.as_tuple()
    return ClassVector(v.n + 1, *(sum(map(operator.mul, row, vals)) for row in TRANSITION_MATRIX))


def _recurrence(seeds: Sequence[T], step: Callable[[deque[T]], T]) -> Iterator[T]:
    """Yield the seeds, then step(window) forever; window holds the last len(seeds) values."""
    yield from seeds
    window = deque(seeds, maxlen=len(seeds))
    while True:
        x = step(window)
        window.append(x)
        yield x


def coupled_stream(num: Callable[[int], T] = int) -> Iterator[ClassVector]:
    """Class vectors for n = 0, 1, 2, ..., iterated from the seed (1, 0, 0, 0) as num."""
    return _recurrence((ClassVector(0, *map(num, (1, 0, 0, 0))),), lambda w: coupled_step(w[-1]))


def decoupled_stream(label: ClassLabel, num: Callable[[int], T] = int) -> Iterator[T]:
    """C_label(n) for n = 0, 1, 2, ... by the class's own decoupled recurrence, seeded as num."""
    seeds, step = DECOUPLED[label]
    return _recurrence(tuple(map(num, seeds)), step)


def quartic_c_stream(num: Callable[[int], T] = int) -> Iterator[T]:
    """C_C(n) for n = 0, 1, 2, ... by the fourth-order recurrence, seeded as num."""
    seeds, step = QUARTIC_C
    return _recurrence(tuple(map(num, seeds)), step)


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
    x(n) = sum c_k x(k + 1), with the seeds taken as num.  The last
    residue is kept (see _residue), so a recurrence that shares the
    polynomial reuses it at the same n.
    """
    require_nonnegative(n)
    if n == 0:
        return num(seeds[0])
    # Keyed on the active decimal context whatever num is, as num may
    # compute in Decimal under another name; the context's repr names every
    # setting, so a residue rounded in one context never reaches another,
    # and its flags, which can only cause a miss.
    residue = _residue(char_poly(seeds, step), n - 1, num, repr(decimal.getcontext()))
    return sum(map(operator.mul, residue, map(num, seeds[1:])))


# A, B and C share one polynomial, so a point request for all three, as
# bench and the aligned table make, reduces t^(n-1) once.
@lru_cache(maxsize=1)
def _residue(poly: tuple[int, ...], e: int, num: Callable[[int], T], context: str) -> tuple[T, ...]:
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


def decoupled_at(label: ClassLabel, n: int, num: Callable[[int], T] = int) -> T:
    """C_label(n) by the class's own decoupled recurrence, as num."""
    return recurrence_at(*DECOUPLED[label], n, num)


def coupled_sequence(N: int) -> list[ClassVector]:
    """Class vectors for n = 0..N, iterated from the seed (1, 0, 0, 0)."""
    require_nonnegative(N, "N")
    return list(islice(coupled_stream(), N + 1))


def decoupled_third_order(label: ClassLabel, n: int) -> int:
    """Class count via the shared third-order recurrence (classes A, B, C)."""
    if label is ClassLabel.D:
        raise ValueError("third-order engine covers classes A, B, C; use decoupled_d for D")
    return decoupled_at(label, n)


def decoupled_d(n: int) -> int:
    """Class count for D: D(n) = 27*D(n-1) with D(1) = 18, and D(0) = 0."""
    return decoupled_at(ClassLabel.D, n)


def quartic_c(n: int, num: Callable[[int], T] = int) -> T:
    """Class count for C via its fourth-order recurrence (see quartic_c_stream), as num."""
    return recurrence_at(*QUARTIC_C, n, num)


# Relation texts are read as data, never run.  _read parses a text with the
# stdlib parser and walks a closed grammar: integer constants, +, -, *,
# unary minus, ^ by an integer constant, products written side by side, and
# the variable x or the terms X(n+k), X in A-D.  Each side becomes a sparse
# polynomial {monomial: coefficient}; a monomial is the sorted tuple of its
# variables, one per degree: "x", or (X, k) for X(n+k).
Poly = dict[tuple, int]


def _collect(terms: Iterable[tuple[tuple, int]]) -> Poly:
    """The (monomial, coefficient) terms summed: like monomials merged, zeros dropped."""
    poly: Poly = {}
    for monomial, c in terms:
        poly[monomial] = poly.get(monomial, 0) + c
    return {monomial: c for monomial, c in poly.items() if c}


def _read(relation: str, in_x: bool) -> tuple[Poly, Poly]:
    """Both sides of the relation "left = right", in x if in_x, else in the terms X(n+k)."""
    import ast  # only the commands that check a relation load the parser

    # The one rewrite: ^ for powers, products side by side, = between the sides.
    source = re.sub(r"(?<=[0-9)])(?=[A-Za-z(])", "*", relation).replace("^", "**").replace("=", "==")
    sign = {ast.Add: 1, ast.Sub: -1}

    def product(p: list, q: list) -> list:
        return [(tuple(sorted(m1 + m2)), c1 * c2) for m1, c1 in p for m2, c2 in q]

    def terms(node: ast.expr) -> list[tuple[tuple, int]]:
        match node:  # type(k) is int: to a pattern, True and False are ints too
            case ast.Constant(int(k)) if type(k) is int:
                return [((), k)]
            case ast.Name("x") if in_x:
                return [(("x",), 1)]
            case ast.Call(ast.Name("A" | "B" | "C" | "D" as X), [ast.Name("n")], []) if not in_x:
                return [(((X, 0),), 1)]
            case ast.Call(
                ast.Name("A" | "B" | "C" | "D" as X), [ast.BinOp(ast.Name("n"), op, ast.Constant(int(k)))], []
            ) if not in_x and type(op) in sign and type(k) is int:
                return [(((X, sign[type(op)] * k),), 1)]
            case ast.UnaryOp(ast.USub(), operand):
                return [(m, -c) for m, c in terms(operand)]
            case ast.BinOp(left, op, right) if type(op) in sign:
                return terms(left) + [(m, sign[type(op)] * c) for m, c in terms(right)]
            case ast.BinOp(left, ast.Mult(), right):
                return product(terms(left), terms(right))
            case ast.BinOp(base, ast.Pow(), ast.Constant(int(k))) if type(k) is int:
                return reduce(product, [terms(base)] * k, [((), 1)])
        raise InternalError(f"cannot read {ast.get_source_segment(source, node)!r} in the relation {relation!r}")

    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        raise InternalError(f"cannot read the relation {relation!r}: {exc.msg}") from None
    if not (isinstance(tree, ast.Compare) and [type(op) for op in tree.ops] == [ast.Eq]):
        raise InternalError(f"the relation {relation!r} is not one equation left = right")
    return _collect(terms(tree.left)), _collect(terms(tree.comparators[0]))


# C's quartic is (x + 1) times the cubic that A, B and C share, stated once
# as the relation validate prints; char_poly_check reads both sides off it.
CHAR_POLY_RELATION = "x^4 - 26x^3 - 702x - 729 = (x+1)(x^3 - 27(x^2 - x + 27))"


def char_poly_check() -> bool:
    """Verify CHAR_POLY_RELATION against the steps that C's streams and point routes run.

    Each side is read as a polynomial in x (see _read).  At five points,
    where two quartics that agree are equal, the left side must be the
    quartic read off QUARTIC_C, and the right side (x + 1) times the cubic
    read off C's step.
    """
    quartic, cubic = char_poly(*QUARTIC_C), char_poly(*DECOUPLED[ClassLabel.C])
    left, right = _read(CHAR_POLY_RELATION, in_x=True)

    def at(poly: Sequence[int], x: int) -> int:
        return sum(c * x**k for k, c in enumerate(poly))

    def value(side: Poly, x: int) -> int:
        return sum(c * x ** len(monomial) for monomial, c in side.items())  # a monomial in x alone is x^degree

    return all(value(left, x) == at(quartic, x) == (x + 1) * at(cubic, x) == value(right, x) for x in range(5))


# Elimination identities tying the four sequences together, each stated
# once as (name, relation), the text validate prints.  _identity reads the
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
Identity = tuple[str, str, int, int, Callable[[Sequence[ClassVector], int], int]]


def _identity(name: str, relation: str) -> Identity:
    """(name, relation, first_valid, lookahead, residual) for the relation "left = right".

    Its linear form, right side minus left, is a constant and terms c*X(n+k):
    the residual sums them, reading each X(n+k) as field x of s[n+k], and
    the window spans the offsets k.
    """
    left, right = _read(relation, in_x=False)
    form = _collect([*right.items(), *((monomial, -c) for monomial, c in left.items())])
    constant = form.pop((), 0)
    for monomial in form:
        if len(monomial) > 1:
            product = "*".join(f"{X}(n{k:+d})" if k else f"{X}(n)" for X, k in monomial)
            raise InternalError(f"cannot read {product!r} in the identity {relation!r}: a product of terms")
    if not form:
        raise InternalError(f"the identity {relation!r} has no term X(n+k)")
    terms = [(c, k, ClassVector._fields.index(X.lower())) for ((X, k),), c in form.items()]
    offsets = [k for _, k, _ in terms]

    def residual(s: Sequence[ClassVector], n: int) -> int:
        total = constant
        for c, k, field in terms:
            total += c * s[n + k][field]
        return total

    return name, relation, max(0, -min(offsets)), max(0, max(offsets)), residual


def __getattr__(name: str) -> Any:
    """IDENTITIES, read off IDENTITY_RELATIONS on first read (PEP 562) and then kept as a module global.

    So only the commands that check the identities load the parser.
    """
    if name != "IDENTITIES":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    identities = globals()[name] = tuple(_identity(*identity) for identity in IDENTITY_RELATIONS)
    return identities


class IdentityResult(namedtuple("IdentityResult", "name relation checked first_failure")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.first_failure is None


class IdentityReport(namedtuple("IdentityReport", "results")):
    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    def __str__(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else f"FAIL at n={r.first_failure}"
            lines.append(f"{r.name:<18} {status}  ({r.checked} indices)  {r.relation}")
        return "\n".join(lines)


def identity_suite(N: int, sequence: Sequence[ClassVector] | None = None, strict: bool = True) -> IdentityReport:
    """Check every elimination identity on the sequence up to index N.

    With the default strict=True the first failing identity raises
    IdentityViolation (naming identity and index); with strict=False the
    full report is returned with failures recorded, which is what the
    validate command prints.  A sequence can be injected to test that
    corrupted data is caught.
    """
    if N < 4:
        raise ValueError(f"identity suite needs N >= 4, got {N}")
    seq = coupled_sequence(N) if sequence is None else sequence
    from .recurrence import IDENTITIES  # read through the module, whose __getattr__ builds it on first use

    results = []
    for name, relation, first_valid, lookahead, residual in IDENTITIES:
        first_failure = None
        checked = 0
        for n in range(first_valid, N - lookahead + 1):
            checked += 1
            r = residual(seq, n)
            if r:
                if strict:
                    raise IdentityViolation(name, n, r)
                first_failure = n
                break
        results.append(IdentityResult(name, relation, checked, first_failure))
    return IdentityReport(tuple(results))
