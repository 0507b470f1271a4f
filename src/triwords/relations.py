"""The checks that validate prints, and the reader of the relation texts they check.

The report, on ints, checks every engine's rows, and each stepping
engine's point route at n <= 8 and at its last n, against the coupled
reference, whose own point route it checks at the same n against the
reference stream; then the 27^n total identity, the
characteristic-polynomial factorisation and the identity suite.

`recurrence` states C's factorisation (CHAR_POLY_RELATION) and each
elimination identity (IDENTITY_RELATIONS) once, as text.  One reader, _read,
takes a text as data and never runs it (no eval): it parses the text and
walks a closed grammar into polynomials.  An identity's residual, right side
minus left, is the sum over its linear form; its window of valid indices
spans the form's offsets.  The texts are read through `recurrence` each
time they are checked, so a rebound text is the one checked.  Of the
commands, only validate loads this module.
"""

from __future__ import annotations

import ast
import re
from collections import namedtuple
from functools import reduce
from itertools import chain
from typing import Callable, Iterable, Sequence

from . import recurrence
from .counting import ClassLabel, ClassVector
from .digits import brief
from .engines import ENGINES, EngineDomainError, EngineInfo, compute_series
from .genfun import poly_mul


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
        raise ValueError(f"cannot read {ast.get_source_segment(source, node)!r} in the relation {relation!r}")

    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        raise ValueError(f"cannot read the relation {relation!r}: {exc.msg}") from None
    if not (isinstance(tree, ast.Compare) and [type(op) for op in tree.ops] == [ast.Eq]):
        raise ValueError(f"the relation {relation!r} is not one equation left = right")
    return _collect(terms(tree.left)), _collect(terms(tree.comparators[0]))


def char_poly_check() -> bool:
    """Verify recurrence.CHAR_POLY_RELATION, read now, against the steps that C's routes run.

    Each side is read as a polynomial in x (see _read).  Its coefficients,
    ascending, must be the quartic's read off QUARTIC_C on the left, and on
    the right (x + 1) times the cubic's read off C's step.
    """
    quartic = recurrence.char_poly(*recurrence.QUARTIC_C)
    cubic = recurrence.char_poly(*recurrence.DECOUPLED[ClassLabel.C])

    def coefficients(side: Poly) -> tuple[int, ...]:
        # A monomial in x alone is x^degree, and _collect drops zeros, so the top coefficient is not 0.
        return tuple(side.get(("x",) * k, 0) for k in range(max(map(len, side), default=-1) + 1))

    left, right = map(coefficients, _read(recurrence.CHAR_POLY_RELATION, in_x=True))
    return left == quartic == poly_mul((1, 1), cubic) == right


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
            raise ValueError(f"cannot read {product!r} in the identity {relation!r}: a product of terms")
    if not form:
        raise ValueError(f"the identity {relation!r} has no term X(n+k)")
    terms = [(c, k, ClassVector._fields.index(X.lower())) for ((X, k),), c in form.items()]
    offsets = [k for _, k, _ in terms]

    def residual(s: Sequence[ClassVector], n: int) -> int:
        total = constant
        for c, k, field in terms:
            total += c * s[n + k][field]
        return total

    return name, relation, max(0, -min(offsets)), max(0, max(offsets)), residual


def identities() -> tuple[Identity, ...]:
    """The identities of recurrence.IDENTITY_RELATIONS, read now."""
    return tuple(_identity(*identity) for identity in recurrence.IDENTITY_RELATIONS)


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


def identity_suite(N: int, sequence: Sequence[ClassVector] | None = None) -> IdentityReport:
    """Check every elimination identity on the sequence up to index N.

    The report records each identity's checked indices and its first
    failing index, if any.  A sequence can be injected to test that
    corrupted data is caught.
    """
    if N < 4:
        raise ValueError(f"identity suite needs N >= 4, got {N}")
    seq = recurrence.coupled_sequence(N) if sequence is None else sequence
    results = []
    for name, relation, first_valid, lookahead, residual in identities():
        first_failure = None
        checked = 0
        for n in range(first_valid, N - lookahead + 1):
            checked += 1
            if residual(seq, n):
                first_failure = n
                break
        results.append(IdentityResult(name, relation, checked, first_failure))
    return IdentityReport(tuple(results))


CheckResult = namedtuple("CheckResult", "name passed detail")

REFERENCE_ENGINE = "coupled"
# Validation stops at these indices even where the engine itself goes further.
CHECK_MAX_N = {"compsum": 300}


def _agreement(
    name: str, reference: list[ClassVector], info: EngineInfo, lo: int, hi: int, rows: bool = True
) -> CheckResult:
    """Compare an engine's rows on [lo, hi], and a stepping one's point route at n <= 8 and at hi, with a reference.

    Without rows only the point route is compared: the reference engine's, against its own stream.
    """
    last = min(hi, 8)
    checks = points = (("point route ", n, info.at(info.labels, n)) for n in (*range(lo, last + 1), hi))
    if rows:
        checks = (("", n, row) for n, row in enumerate(info.rows(info.labels, lo, hi), lo))
        if info.step is not None:
            checks = chain(checks, points)
    for route, n, row in checks:
        want = tuple(map(reference[n].component, info.labels))
        if row != want:
            label, got, expected = next(t for t in zip(info.labels, row, want) if t[1] != t[2])
            detail = f"{route}mismatch at n={n} class {label.value}: {brief(got)} != {brief(expected)}"
            return CheckResult(name, False, detail)
    if rows or hi == last:
        return CheckResult(name, True, f"n = {lo}..{hi}")
    return CheckResult(name, True, f"n = {lo}..{last} and {hi}")


def run_validation(max_n: int) -> list[CheckResult]:
    """All cross-engine, identity and structural checks up to max_n."""
    if max_n < 4:
        raise EngineDomainError(f"validation needs max_n >= 4, got {max_n}")
    reference = compute_series(REFERENCE_ENGINE, max_n)
    results = []

    for info in ENGINES.values():
        hi = min(cap for cap in (max_n, info.max_n, CHECK_MAX_N.get(info.name)) if cap is not None)
        if info.name == REFERENCE_ENGINE:  # its rows are the reference, so only its point route is checked
            name, rows = f"engine/{info.name}-point-vs-stream", False
        else:
            name, rows = f"engine/{info.name}-vs-{REFERENCE_ENGINE}", True
        results.append(_agreement(name, reference, info, info.min_n, hi, rows))

    power = 1
    v4 = reference[4]
    sum_result = CheckResult(
        "sum-identity",
        True,
        f"A+B+C+D = 27^n for n = 0..{max_n}; n=4: {v4.a}+{v4.b}+{v4.c}+{v4.d} = {v4.total} = 3^12",
    )
    for n in range(max_n + 1):
        if reference[n].total != power:
            sum_result = CheckResult("sum-identity", False, f"total at n={n} is not 27^{n}")
            break
        power *= 27
    results.append(sum_result)

    results.append(CheckResult("char-poly-factorization", char_poly_check(), recurrence.CHAR_POLY_RELATION))

    for r in identity_suite(max_n, sequence=reference).results:
        detail = f"{r.relation} ({r.checked} indices)" if r.passed else f"{r.relation}; fails at n={r.first_failure}"
        results.append(CheckResult(f"identity/{r.name}", r.passed, detail))

    return results
