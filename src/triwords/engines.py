"""Uniform access to the compute engines, plus the cross-validation checks.

Every engine computes the same four integer sequences by a different
route, so any disagreement, down to a single bit, is a bug in one of
them.  The registry below records each engine's domain (minimum n, an
upper bound for the brute-force enumerator, and which classes it covers)
and two routes to the numbers.  The point route, `at`, gives one n and
serves `compute` and `bench`; coupled, decoupled, quartic-c and genfun
take O(log n) big products there, not a walk from n = 0.  The stream
route, `rows`, gives n = lo..hi and serves `table`, `bfile` and
`validate`; those four engines take point values from lo until their
step's window is full, then step, and the rest map `at` over n.  Both
routes give ints, or another number type `num`, such as `Decimal`, for a
caller that only prints them.  Every engine but the enumerators computes in num from num
seeds, so no computed int is converted; the enumerators count faster on
ints, and their registry entries convert the counts to num.  The report,
on ints, checks every engine's rows, and each streaming engine's point
route at n <= 8 and at its last n, against the coupled reference, whose
own point route it checks at the same n against the reference stream;
then the 27^n total identity, the characteristic-polynomial
factorisation and the identity suite.
"""

from __future__ import annotations

import sys
import time
from collections import namedtuple
from itertools import chain
from typing import Any, Callable, Iterator

from . import _bind_on_first_use
from .counting import BRUTE_FORCE_MAX_N, ClassLabel, ClassVector, brute_force_words, composition_sum
from .digits import brief

# The functions this module takes from each engine module.  Each binds on
# first use, so a command imports only its own engine's module.
__getattr__ = _bind_on_first_use(
    globals(),
    {
        "closedform": "case_mod4_at closed_form_at root_basis_at",
        "genfun": "gf_at gf_for_class gf_rows",
        "recurrence": "coupled_at coupled_rows decoupled_at decoupled_rows quartic_c quartic_c_rows",
        "relations": "char_poly_check identity_suite",
    },
)

# This module, whose attributes the registry reads at call time.
_here = sys.modules[__name__]

ALL_LABELS = (ClassLabel.A, ClassLabel.B, ClassLabel.C, ClassLabel.D)


class EngineDomainError(ValueError):
    """The engine does not cover the requested class or index."""


# The number type of an engine's values: int, or a type built from an int
# exactly, such as decimal.Decimal.
Num = Callable[[int], Any]

def _pick(v: ClassVector, labels: tuple[ClassLabel, ...]) -> tuple[int, ...]:
    if labels == ALL_LABELS:
        return v[1:]  # a plain tuple: the counts after n
    return tuple(map(v.component, labels))


class EngineInfo(namedtuple("EngineInfo", "name min_n max_n labels at stream check_max_n", defaults=(None, None))):
    """An engine's domain, its classes from min_n to max_n (None: no cap), and its point route at.

    at(labels, n, num=int) gives the values of those classes at n, in label
    order and as num, and rows(labels, lo, hi, num=int) gives them for n =
    lo..hi.  stream is the engine's own rows route, its point values at lo
    and then its step; without one, rows maps at over n.  Validation stops
    at check_max_n even where the engine itself goes further.
    """

    __slots__ = ()

    def rows(self, labels: tuple[ClassLabel, ...], lo: int, hi: int, num: Num = int) -> Iterator[tuple]:
        if self.stream is not None:
            return self.stream(labels, lo, hi, num)
        return (self.at(labels, n, num) for n in range(lo, hi + 1))


# The lambdas read their engine functions as attributes of this module at
# call time, so the registry follows whatever those names are bound to, and
# the first call binds a name and imports its module (see __getattr__).
ENGINES: dict[str, EngineInfo] = {
    e.name: e
    for e in (
        EngineInfo("brute", 0, BRUTE_FORCE_MAX_N, ALL_LABELS,
                   lambda labels, n, num=int: tuple(map(num, _pick(brute_force_words(n), labels)))),
        EngineInfo("compsum", 0, None, ALL_LABELS,
                   lambda labels, n, num=int: tuple(map(num, _pick(composition_sum(n), labels))), check_max_n=300),
        EngineInfo("coupled", 0, None, ALL_LABELS, lambda labels, n, num=int: _pick(_here.coupled_at(n, num), labels),
                   lambda labels, lo, hi, num=int: (_pick(v, labels) for v in _here.coupled_rows(lo, hi, num))),
        EngineInfo("decoupled", 0, None, ALL_LABELS, lambda labels, n, num=int: _here.decoupled_at(labels, n, num),
                   lambda labels, lo, hi, num=int: _here.decoupled_rows(labels, lo, hi, num)),
        EngineInfo("quartic-c", 0, None, (ClassLabel.C,), lambda labels, n, num=int: (_here.quartic_c(n, num),),
                   lambda labels, lo, hi, num=int: zip(_here.quartic_c_rows(lo, hi, num))),
        EngineInfo("closed", 1, None, ALL_LABELS, lambda labels, n, num=int: _here.closed_form_at(labels, n, num)),
        EngineInfo("rootbasis", 1, None, ALL_LABELS, lambda labels, n, num=int: _here.root_basis_at(labels, n, num)),
        EngineInfo("mod4", 1, None, ALL_LABELS, lambda labels, n, num=int: _here.case_mod4_at(labels, n, num)),
        EngineInfo("genfun", 0, None, ALL_LABELS,
                   lambda labels, n, num=int: _here.gf_at(tuple(map(_here.gf_for_class, labels)), n, num),
                   lambda labels, lo, hi, num=int: _here.gf_rows(tuple(map(_here.gf_for_class, labels)), lo, hi, num)),
    )
}

ENGINE_IDS = tuple(ENGINES)
REFERENCE_ENGINE = "coupled"


def check_domain(engine: str, n: int, label: ClassLabel | None = None) -> EngineInfo:
    """The registry entry of an engine, checked to cover index n, and the class when one is given.

    Raises EngineDomainError for an unknown name or an uncovered request.
    """
    try:
        info = ENGINES[engine]
    except KeyError:
        raise EngineDomainError(f"unknown engine {engine!r}; known: {', '.join(ENGINE_IDS)}") from None
    if label is not None and label not in info.labels:
        raise EngineDomainError(f"engine {engine!r} only covers classes {[l.value for l in info.labels]}")
    if n < info.min_n:
        raise EngineDomainError(f"engine {engine!r} needs n >= {info.min_n}, got {n}")
    if info.max_n is not None and n > info.max_n:
        raise EngineDomainError(f"engine {engine!r} is capped at n = {info.max_n}, got {n}")
    return info


def compute_value(engine: str, label: ClassLabel, n: int, num: Num = int) -> Any:
    """One class count by one engine, as num; raises EngineDomainError when out of range.

    A Decimal count must be computed in digits.EXACT, or the caller's context may round it.
    """
    return check_domain(engine, n, label).at((label,), n, num)[0]


def series(engine: str, max_n: int, num: Num = int) -> Iterator[ClassVector]:
    """Class vectors for n = 0..max_n, computed as read; only engines defined from n = 0 qualify.

    The counts are of type num; the index n stays an int.  A Decimal series
    must be read in digits.EXACT, or the caller's context may round it.  The
    checks run on the call, so a refused request raises before any vector is read.
    """
    if max_n < 0:
        raise EngineDomainError(f"max_n must be nonnegative, got {max_n}")
    info = check_domain(engine, max_n)
    if info.min_n > 0 or info.labels != ALL_LABELS:
        raise EngineDomainError(f"engine {engine!r} cannot produce the full table from n = 0")
    return (ClassVector(n, *row) for n, row in enumerate(info.rows(ALL_LABELS, 0, max_n, num)))


def compute_series(engine: str, max_n: int) -> list[ClassVector]:
    """Class vectors for n = 0..max_n, as a list; see series."""
    return list(series(engine, max_n))


CheckResult = namedtuple("CheckResult", "name passed detail")


def _agreement(
    name: str, reference: list[ClassVector], info: EngineInfo, lo: int, hi: int, rows: bool = True
) -> CheckResult:
    """Compare an engine's rows on [lo, hi], and a streaming one's point route at n <= 8 and at hi, with a reference.

    Without rows only the point route is compared: the reference engine's, against its own stream.
    """
    last = min(hi, 8)
    checks = points = (("point route ", n, info.at(info.labels, n)) for n in (*range(lo, last + 1), hi))
    if rows:
        checks = (("", n, row) for n, row in enumerate(info.rows(info.labels, lo, hi), lo))
        if info.stream is not None:
            checks = chain(checks, points)
    for route, n, row in checks:
        want = _pick(reference[n], info.labels)
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
        raise ValueError(f"validation needs max_n >= 4, got {max_n}")
    reference = compute_series(REFERENCE_ENGINE, max_n)
    results = []

    for info in ENGINES.values():
        hi = min(cap for cap in (max_n, info.max_n, info.check_max_n) if cap is not None)
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

    from .recurrence import CHAR_POLY_RELATION as relation  # the text the check reads

    results.append(CheckResult("char-poly-factorization", _here.char_poly_check(), relation))

    report = _here.identity_suite(max_n, sequence=reference, strict=False)
    for r in report.results:
        detail = f"{r.relation} ({r.checked} indices)" if r.passed else f"{r.relation}; fails at n={r.first_failure}"
        results.append(CheckResult(f"identity/{r.name}", r.passed, detail))

    return results


def bench_engine(engine: str, n: int, num: Num = int) -> tuple[float, dict[ClassLabel, Any]]:
    """Wall-clock time and values, as num, for computing every supported class at n, in one pass."""
    info = check_domain(engine, n)
    info.at(info.labels, info.min_n, num)  # binds the route, and imports its module, before the clock starts
    start = time.perf_counter()
    row = info.at(info.labels, n, num)
    elapsed = time.perf_counter() - start
    return elapsed, dict(zip(info.labels, row))
