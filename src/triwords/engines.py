"""Uniform access to the compute engines.

Every engine computes the same four integer sequences by a different
route, so any disagreement, down to a single bit, is a bug in one of
them.  The registry below records each engine's domain (minimum n, an
upper bound for the brute-force enumerator, and which classes it covers)
and two routes to the numbers.  The point route, `at`, gives one n and
serves `compute` and `bench`; coupled, decoupled, quartic-c and genfun
take O(log n) big products there, not a walk from n = 0.  The row route,
`rows`, gives n = lo..hi and serves `table`, `bfile` and `validate`; those
four engines give a step, and `rows` runs each by counting.stepped: point
values from lo until the step's window is full, then the step.  The rest
map the point route over n.  Both routes give ints, or another number type
`num`, such as `Decimal`, for a caller that only prints them.  Every engine
but the enumerators computes in num from num seeds, so no computed int is
converted; the enumerators count faster on ints, and their registry entries
convert the counts to num.  Each engine's routes live in its home module.
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import partial
from importlib import import_module
from typing import Any, Callable, Iterator

from .counting import BRUTE_FORCE_MAX_N, ClassLabel, ClassVector, stepped

ALL_LABELS = (ClassLabel.A, ClassLabel.B, ClassLabel.C, ClassLabel.D)


class EngineDomainError(ValueError):
    """A refused request: bad argv, or an engine, class or index not covered.  cli.main exits 2 for it alone."""


# The number type of an engine's values: int, or a type built from an int
# exactly, such as decimal.Decimal.
Num = Callable[[int], Any]

def _pick(row: tuple, labels: tuple[ClassLabel, ...]) -> tuple:
    if not isinstance(row, ClassVector):  # a row already in label order
        return row
    if labels == ALL_LABELS:
        return row[1:]  # a plain tuple: the counts after n
    return tuple(map(row.component, labels))


class EngineInfo(namedtuple("EngineInfo", "name min_n max_n labels home point step", defaults=(None,))):
    """An engine's domain, its classes from min_n to max_n (None: no cap), and its routes in module home.

    at(labels, n, num=int) gives those classes' values at n, in label order and as num, by
    point(m, labels, n, num), with m the module home, imported on the call.  rows(labels, lo, hi,
    num=int) gives them for n = lo..hi: point over n, or, given step(m, labels) -> (order, next),
    point values from lo until a window of order rows is full, then next(window).
    """

    __slots__ = ()

    def at(self, labels: tuple[ClassLabel, ...], n: int, num: Num = int) -> tuple:
        return _pick(self.point(import_module(f"{__package__}.{self.home}"), labels, n, num), labels)

    def rows(self, labels: tuple[ClassLabel, ...], lo: int, hi: int, num: Num = int) -> Iterator[tuple]:
        m = import_module(f"{__package__}.{self.home}")
        point = partial(self.point, m, labels, num=num)
        rows = map(point, range(lo, hi + 1)) if self.step is None else stepped(point, *self.step(m, labels), lo, hi)
        return (_pick(row, labels) for row in rows)


# Each route reads its engine functions from m as it runs, so it follows that module's bindings.
ENGINES: dict[str, EngineInfo] = {
    e.name: e
    for e in (
        EngineInfo("brute", 0, BRUTE_FORCE_MAX_N, ALL_LABELS, "counting",
                   lambda m, labels, n, num: tuple(map(num, _pick(m.brute_force_words(n), labels)))),
        EngineInfo("compsum", 0, None, ALL_LABELS, "counting",
                   lambda m, labels, n, num: tuple(map(num, _pick(m.composition_sum(n), labels)))),
        EngineInfo("coupled", 0, None, ALL_LABELS, "recurrence",
                   lambda m, labels, n, num: m.coupled_at(n, num),
                   lambda m, labels: (1, lambda w: m.coupled_step(w[-1]))),
        EngineInfo("decoupled", 0, None, ALL_LABELS, "recurrence",
                   lambda m, labels, n, num: m.decoupled_at(labels, n, num),
                   lambda m, labels: m.recurrences_step([m.DECOUPLED[label] for label in labels])),
        EngineInfo("quartic-c", 0, None, (ClassLabel.C,), "recurrence",
                   lambda m, labels, n, num: (m.quartic_c(n, num),),
                   lambda m, labels: m.recurrences_step([m.QUARTIC_C])),
        EngineInfo("closed", 1, None, ALL_LABELS, "closedform", lambda m, labels, n, num: m.closed_form_at(labels, n, num)),
        EngineInfo("rootbasis", 1, None, ALL_LABELS, "closedform", lambda m, labels, n, num: m.root_basis_at(labels, n, num)),
        EngineInfo("mod4", 1, None, ALL_LABELS, "closedform", lambda m, labels, n, num: m.case_mod4_at(labels, n, num)),
        EngineInfo("genfun", 0, None, ALL_LABELS, "genfun",
                   lambda m, labels, n, num: m.gf_at(tuple(map(m.gf_for_class, labels)), n, num),
                   lambda m, labels: m.gf_step(tuple(map(m.gf_for_class, labels)))),
    )
}

ENGINE_IDS = tuple(ENGINES)


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


def bench_engine(engine: str, n: int, num: Num = int) -> tuple[float, dict[ClassLabel, Any]]:
    """Wall-clock time and values, as num, for computing every supported class at n, in one pass."""
    info = check_domain(engine, n)
    info.at(info.labels, info.min_n, num)  # imports the home module before the clock starts
    start = time.perf_counter()
    row = info.at(info.labels, n, num)
    elapsed = time.perf_counter() - start
    return elapsed, dict(zip(info.labels, row))
