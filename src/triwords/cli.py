"""Command-line interface: compute, table, bfile, validate, bench.

Exit status is 0 on success, 1 when a validation check fails, 2 for
usage errors (bad flags, out-of-domain requests), 3 for internal
errors (a `counting.InternalError`: an engine produced a value that
cannot be right, such as a closed form that is not an integer or letter
counts not summing to a multiple of three, or was given a generating
function it cannot expand or a transition matrix it cannot power; or a
`decimal` operation signalled), and 141 (128 + SIGPIPE, as a shell
reports a process killed by that signal) when the reader of stdout
closes it early, as `| head` does; that exit prints nothing.  All values
print in full decimal, so outputs diff bit for bit.  Every printed value,
single (compute, bench, the aligned table's widths) or streamed (table,
bfile), is an exact `Decimal`, in the context `digits.EXACT`, printed as
`str()` gives it, in linear time (`compute` and `bench`'s digests in
bounded pieces, by `digits.write_decimal`); the registry converts the ints
of `brute` and `compsum`.  No command calls `str()` on an int past
CPython's lowest int-to-str cap.  `validate` checks the int routes.
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal, DecimalException, localcontext
from itertools import chain
from typing import Iterator

from .counting import ClassLabel, InternalError, require_nonnegative
from .digits import EXACT, decimal_digits, write_decimal
from .engines import (
    ALL_LABELS,
    ENGINE_IDS,
    EngineDomainError,
    bench_engine,
    check_domain,
    compute_value,
    series,
)

USAGE_ERROR = 2
INTERNAL_ERROR = 3
BROKEN_PIPE = 141

# OEIS b-files are emitted for these entries (classes A, B, C in order).
OEIS_SEQUENCES = {
    "A391468": ClassLabel.A,
    "A391469": ClassLabel.B,
    "A391470": ClassLabel.C,
}

TABLE_HEADER = ("n", "C_A", "C_B", "C_C", "C_D", "total")


class UnknownSequence(ValueError):
    """Requested OEIS id is not one of the three emitted sequences."""


def _bfile_stream(sequence: str, max_n: int, offset: int = 1) -> Iterator[str]:
    """The "index value" lines of the b-file for one OEIS id, computed as read.

    Values come from the class's decoupled rows, point values at `offset`
    and then the step, so an offset costs no rows below it; they are
    Decimal, so the lines must be read in digits.EXACT.  The index runs
    from `offset` (default 1, matching initial values that start at n = 1)
    to max_n.  A refused request raises on the call, before any line is read.
    """
    if sequence not in OEIS_SEQUENCES:
        raise UnknownSequence(f"unknown sequence {sequence!r}; known: {', '.join(OEIS_SEQUENCES)}")
    require_nonnegative(max_n, "max_n")
    if not 0 <= offset <= max_n:
        raise ValueError(f"offset must be in 0..max_n, got {offset}")
    label = OEIS_SEQUENCES[sequence]
    values = check_domain("decoupled", max_n, label).rows((label,), offset, max_n, Decimal)
    return (f"{n} {value!s}" for n, (value,) in enumerate(values, offset))


def bfile_lines(sequence: str, max_n: int, offset: int = 1) -> list[str]:
    """The "index value" lines of the b-file for one OEIS id, as a list; see _bfile_stream."""
    with localcontext(EXACT):
        return list(_bfile_stream(sequence, max_n, offset))


def _cmd_compute(args) -> int:
    write_decimal(compute_value(args.engine, ClassLabel(args.cls), args.n, Decimal), sys.stdout.write)
    print()
    return 0


def _cmd_table(args) -> int:
    # series() refuses a bad request on the call, and row 0, always there, is
    # taken here, so an engine that fails at once prints no part of a document.
    rows = ((v.n, v.a, v.b, v.c, v.d, v.total) for v in series(args.engine, args.max_n, Decimal))
    rows = chain([next(rows)], rows)
    if args.format == "csv":
        # Every cell is digits, so no csv quoting ever applies.
        print(",".join(TABLE_HEADER))
        for r in rows:
            print(",".join(map(str, r)))
    elif args.format == "json":
        # json.dump(..., indent=2)'s layout, a row at a time.  Engine ids and
        # headers need no escaping, and there is always the row n = 0.
        print(f'{{\n  "engine": "{args.engine}",\n  "max_n": {args.max_n},\n  "rows": [')
        separator = ""
        for r in rows:
            fields = ",\n".join(f'      "{h}": {cell}' for h, cell in zip(TABLE_HEADER, r))
            print(f"{separator}    {{\n{fields}\n    }}", end="")
            separator = ",\n"
        print("\n  ]\n}")
    else:
        # Counts never fall as n grows (appending 111 keeps a word's class), so the row at max_n is the widest.
        values = check_domain(args.engine, args.max_n).at(ALL_LABELS, args.max_n, Decimal)
        last = (args.max_n, *values, sum(values))
        widths = [max(len(h), decimal_digits(cell)) for h, cell in zip(TABLE_HEADER, last)]
        print("  ".join(h.rjust(w) for h, w in zip(TABLE_HEADER, widths)))
        for r in rows:
            print("  ".join(str(cell).rjust(w) for cell, w in zip(r, widths)))
    return 0


def _cmd_bfile(args) -> int:
    for line in _bfile_stream(args.sequence, args.max_n, args.offset):
        print(line)
    return 0


def _cmd_validate(args) -> int:
    from .relations import run_validation  # only validate loads the checks, and the parser they read texts with

    results = sorted(run_validation(args.max_n), key=lambda r: r.name)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{status}  {r.name}: {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed (max_n = {args.max_n})")
    return 0 if failures == 0 else 1


def _value_column(values: dict[ClassLabel, Decimal], digits: int) -> str:
    # "A=<digits>,B=<digits>,...": the values' digits, "A=" before each, and a comma between two.
    if digits + 3 * len(values) - 1 <= 60:
        return ",".join(f"{label.value}={v}" for label, v in values.items())
    # BLAKE2 is CPython's own `_blake2` module: `hashlib.blake2b` is this
    # very function, but importing hashlib loads OpenSSL's libcrypto, about
    # 3.5 MB of peak memory, so no command loads OpenSSL.  Imported here,
    # the one place that hashes.
    from _blake2 import blake2b

    digest = blake2b(digest_size=8)
    for i, value in enumerate(values.values()):
        digest.update(b"," if i else b"")
        write_decimal(value, lambda piece: digest.update(piece.encode()))
    return "blake2b:" + digest.hexdigest()


def _cmd_bench(args) -> int:
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    if not engines:
        raise EngineDomainError("no engines given")
    # Refuse any engine that does not cover max_n before the first byte.
    for engine in engines:
        check_domain(engine, args.max_n)
    print(f"{'engine':<12} {'seconds':>10} {'digits':>8}  values")
    for engine in engines:
        elapsed, values = bench_engine(engine, args.max_n, Decimal)
        digits = sum(map(decimal_digits, values.values()))
        print(f"{engine:<12} {elapsed:>10.4f} {digits:>8}  {_value_column(values, digits)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triwords",
        description="Exact counts of 3n-letter words over a three-letter alphabet by residue class.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="one class count at one index")
    p.add_argument("--class", dest="cls", required=True, choices=[l.value for l in ClassLabel])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--engine", default="decoupled", choices=ENGINE_IDS)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("table", help="all four classes and the total for n = 0..max_n")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--engine", default="decoupled", choices=ENGINE_IDS)
    p.add_argument("--format", default="table", choices=["table", "csv", "json"])
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("bfile", help="emit an OEIS b-file (index value lines)")
    p.add_argument("sequence", choices=sorted(OEIS_SEQUENCES))
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--offset", type=int, default=1, help="first emitted index (default 1)")
    p.set_defaults(func=_cmd_bfile)

    p = sub.add_parser("validate", help="run all cross-engine and identity checks")
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bench", help="time engines computing all their classes at n = max_n")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--engines", required=True, help="comma-separated engine ids")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command on argv (default sys.argv[1:]) and return its exit status.

    Tests call this in process, so process set-up, such as freezing the
    garbage collector, belongs to the process entry, `triwords.__main__.run`.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Decimal streams are read in the exact context, never the caller's,
        # which could round them.
        with localcontext(EXACT):
            status = args.func(args)
        # Flushed here, so that a reader gone early is caught below and not
        # in the interpreter's own flush at exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Point stdout at the null device, so the exit flush of what is
        # still buffered cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except (InternalError, DecimalException) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
