"""Command-line interface: compute, table, bfile, validate, bench.

`parse` reads argv by one table, `COMMANDS`, as argparse did; `-h` prints
the usage built from it.  Exit status is 0 on success, 1 when a validation
check fails, 2 for a refused request, a bad argv or an out-of-domain one (an
`engines.EngineDomainError`, raised only where a request is read: one
`error:` line on stderr), 3 for any other exception, a bug (one `internal
error:` line, no traceback), 141 (128 + SIGPIPE), silent, when the reader of
stdout closes it early, as `| head` does, and 74 (`EX_IOERR`) when stdout
cannot be written, full or closed: one `error: cannot write output:` line on
stderr.  A line that stderr cannot take is dropped, and the status stays.
Only status 0 means the output is whole: a streamed `table` or `bfile` that
fails keeps the rows it wrote.  Every value prints as the `str()` of an
exact `Decimal` in `digits.EXACT`, in linear time (`compute` and `bench`'s
digests in pieces, by `digits.write_decimal`): outputs diff bit for bit, and
no command calls `str()` on an int past CPython's lowest int-to-str cap.
"""

from __future__ import annotations

import errno
import os
import sys
from contextlib import suppress
from decimal import Decimal, localcontext
from itertools import chain
from typing import Iterator

from .counting import ClassLabel
from .digits import EXACT, decimal_digits, write_decimal
from .engines import ALL_LABELS, ENGINE_IDS, EngineDomainError, bench_engine, check_domain, compute_value, series

USAGE_ERROR = 2
INTERNAL_ERROR = 3
BROKEN_PIPE = 141
OUTPUT_ERROR = 74  # EX_IOERR in sysexits.h

# OEIS b-files are emitted for these entries (classes A, B, C in order).
OEIS_SEQUENCES = {"A391468": ClassLabel.A, "A391469": ClassLabel.B, "A391470": ClassLabel.C}

TABLE_HEADER = ("n", "C_A", "C_B", "C_C", "C_D", "total")


def _bfile_stream(sequence: str, max_n: int, offset: int = 1) -> Iterator[str]:
    """The "index value" lines of the b-file for one OEIS id, computed as read.

    Values come from the class's decoupled rows, point values at `offset`
    and then the step, so an offset costs no rows below it; they are
    Decimal, so the lines must be read in digits.EXACT.  The index runs
    from `offset` (default 1, matching initial values that start at n = 1)
    to max_n.  A refused request raises on the call, before any line is read.
    """
    if sequence not in OEIS_SEQUENCES:
        raise EngineDomainError(f"unknown sequence {sequence!r}; known: {', '.join(OEIS_SEQUENCES)}")
    if max_n < 0:
        raise EngineDomainError(f"max_n must be nonnegative, got {max_n}")
    if not 0 <= offset <= max_n:
        raise EngineDomainError(f"offset must be in 0..max_n, got {offset}")
    label = OEIS_SEQUENCES[sequence]
    values = check_domain("decoupled", max_n, label).rows((label,), offset, max_n, Decimal)
    return (f"{n} {value!s}" for n, (value,) in enumerate(values, offset))


def bfile_lines(sequence: str, max_n: int, offset: int = 1) -> list[str]:
    """The "index value" lines of the b-file for one OEIS id, as a list; see _bfile_stream."""
    with localcontext(EXACT):
        return list(_bfile_stream(sequence, max_n, offset))


def _cmd_compute(args) -> int:
    write_decimal(compute_value(args["engine"], ClassLabel(args["class"]), args["n"], Decimal), sys.stdout.write)
    print()
    return 0


def _cmd_table(args) -> int:
    # series() refuses a bad request on the call, and row 0, always there, is
    # taken here, so an engine that fails at once prints no part of a document.
    rows = ((v.n, v.a, v.b, v.c, v.d, v.total) for v in series(args["engine"], args["max-n"], Decimal))
    rows = chain([next(rows)], rows)
    if args["format"] == "csv":
        # Every cell is digits, so no csv quoting ever applies.
        print(",".join(TABLE_HEADER))
        for r in rows:
            print(",".join(map(str, r)))
    elif args["format"] == "json":
        # json.dump(..., indent=2)'s layout, a row at a time.  Engine ids and
        # headers need no escaping, and there is always the row n = 0.
        print(f'{{\n  "engine": "{args["engine"]}",\n  "max_n": {args["max-n"]},\n  "rows": [')
        separator = ""
        for r in rows:
            fields = ",\n".join(f'      "{h}": {cell}' for h, cell in zip(TABLE_HEADER, r))
            print(f"{separator}    {{\n{fields}\n    }}", end="")
            separator = ",\n"
        print("\n  ]\n}")
    else:
        # Counts never fall as n grows (appending 111 keeps a word's class), so the row at max_n is the widest.
        values = check_domain(args["engine"], args["max-n"]).at(ALL_LABELS, args["max-n"], Decimal)
        last = (args["max-n"], *values, sum(values))
        widths = [max(len(h), decimal_digits(cell)) for h, cell in zip(TABLE_HEADER, last)]
        print("  ".join(h.rjust(w) for h, w in zip(TABLE_HEADER, widths)))
        for r in rows:
            print("  ".join(str(cell).rjust(w) for cell, w in zip(r, widths)))
    return 0


def _cmd_bfile(args) -> int:
    for line in _bfile_stream(args["sequence"], args["max-n"], args["offset"]):
        print(line)
    return 0


def _cmd_validate(args) -> int:
    from .relations import run_validation  # only validate loads the checks, and the parser they read texts with

    results = sorted(run_validation(args["max-n"]), key=lambda r: r.name)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    failures = sum(not r.passed for r in results)
    print(f"{len(results) - failures}/{len(results)} checks passed (max_n = {args['max-n']})")
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
    engines = [e.strip() for e in args["engines"].split(",") if e.strip()]
    if not engines:
        raise EngineDomainError("no engines given")
    # Refuse any engine that does not cover max_n before the first byte.
    for engine in engines:
        check_domain(engine, args["max-n"])
    print(f"{'engine':<12} {'seconds':>10} {'digits':>8}  values")
    for engine in engines:
        elapsed, values = bench_engine(engine, args["max-n"], Decimal)
        digits = sum(map(decimal_digits, values.values()))
        print(f"{engine:<12} {elapsed:>10.4f} {digits:>8}  {_value_column(values, digits)}")
    return 0


# Each command's help line and options.  An option has a kind (int, str or
# a tuple of choices) and a default, None if it is required; a name without
# "--" is positional.
ENGINE = (ENGINE_IDS, "decoupled")
COMMANDS = {
    "compute": (
        "one class count at one index",
        {"--class": (tuple(label.value for label in ClassLabel), None), "--n": (int, None), "--engine": ENGINE},
    ),
    "table": (
        "all four classes and the total for n = 0..max_n",
        {"--max-n": (int, None), "--engine": ENGINE, "--format": (("table", "csv", "json"), "table")},
    ),
    "bfile": (
        "emit an OEIS b-file (index value lines)",
        {"sequence": (tuple(sorted(OEIS_SEQUENCES)), None), "--max-n": (int, None), "--offset": (int, 1)},
    ),
    "validate": ("run all cross-engine and identity checks", {"--max-n": (int, None)}),
    "bench": ("time engines computing all their classes at n = max_n", {"--max-n": (int, None), "--engines": (str, None)}),
}


def _cmd_help(commands: list[str]) -> int:
    print("usage: triwords [-h] COMMAND [-h] OPTIONS\n")
    print("Exact counts of 3n-letter words over a three-letter alphabet by residue class.")
    for command in commands:
        print(f"\n  triwords {command}: {COMMANDS[command][0]}")
        for name, (kind, default) in COMMANDS[command][1].items():
            value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind.__name__
            print(f"    {name} {value}" + ("" if default is None else f" (default {default})"))
    return 0


def _option(token: str, names: list[str]) -> tuple[str, str | None] | None:
    """argparse's reading of a token: None if positional, else the option ("" if
    unknown) and the text after its "=" or an "-h" (None if there is none)."""
    name, eq, text = token.partition("=")
    if not token.startswith("-") or token in ("-", "--"):
        return None
    matches = [name] if name in names else [o for o in names if o.startswith(name)] if token[1] == "-" else []
    if len(matches) > 1:
        raise EngineDomainError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], text if eq else None
    if token.startswith("-h"):
        return "-h", token[2:]
    whole, dot, fraction = token[1:].partition(".")
    negative = whole.isdecimal() and not dot or dot and fraction.isdecimal() and (whole + "0").isdecimal()
    return None if negative or " " in token else ("", None)


def parse(argv: list[str], command: str = "") -> tuple[str, dict]:
    """The command argv names and its values by option name without "--", or ("help", the
    commands to describe); a usage error raises EngineDomainError.  As argparse read it: "--opt
    value" or "--opt=value" in any order, unique prefixes, negative values, the last of a
    repeated option, "--" before positionals.  The command reads the tokens after it."""
    options = COMMANDS[command][1] if command else {"command": (tuple(COMMANDS), None)}
    names = ["-h", "--help", *(name for name in options if name.startswith("--"))]
    # Every token before the first "--" is read first, so an ambiguous prefix
    # fails before -h; that "--" is dropped only beside the positional.
    end = argv.index("--") if command and "--" in argv else len(argv)
    kinds = [_option(token, names) for token in argv[:end]] + ["--"] + [None] * (len(argv) - end)
    positionals = [name for name in options if not name.startswith("-")]
    values, unknown, positional_at, i = {}, [], None, 0
    while i < len(argv):
        token, option = argv[i], kinds[i]
        i += 1
        if option == "--":
            continue
        if option is None and positionals:
            name, text, positional_at = positionals.pop(0), token, i - 1
        elif option is None or not option[0]:
            unknown.append(token)
            continue
        else:
            name, text = option
            if name in ("-h", "--help"):
                if text is None or name == "-h" and text and not text.strip("h"):
                    return "help", [command] if command else list(COMMANDS)
                raise EngineDomainError(f"argument -h/--help: ignored explicit argument {text!r}")
            if text is None:
                if kinds[i] is not None:
                    raise EngineDomainError(f"argument {name}: expected one argument")
                text, i = argv[i], i + 1
        kind = options[name][0]
        if isinstance(kind, tuple) and text not in kind:
            raise EngineDomainError(f"argument {name}: invalid choice: {text!r} (choose from {', '.join(kind)})")
        try:
            values[name] = int(text) if kind is int else text
        except ValueError:
            raise EngineDomainError(f"argument {name}: invalid int value: {text!r}") from None
        if not command:
            parsed = parse(argv[i:], text)
            if unknown and parsed[0] != "help":
                break
            return parsed
    if end < len(argv) and positional_at not in (end - 1, end + 1):
        unknown.append("--")
    missing = [name for name, (_, default) in options.items() if default is None and name not in values]
    if missing:
        raise EngineDomainError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise EngineDomainError(f"unrecognized arguments: {' '.join(unknown)}")
    return command, {name.lstrip("-"): values.get(name, default) for name, (_, default) in options.items()}


def _to_null_device() -> None:
    """Point stdout at the null device, so no later flush can raise again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    """Run one command on argv (default sys.argv[1:]) and return its exit status; never exit."""
    try:
        command, args = parse(sys.argv[1:] if argv is None else argv)
        if sys.stdout is None:  # the process started with stdout closed, as by `>&-`
            raise OSError(errno.EBADF, "stdout is closed")
        # Decimal streams are read in the exact context, never the caller's, which
        # could round them; the command is looked up now, so a later wrapper runs.
        with localcontext(EXACT):
            status = globals()[f"_cmd_{command}"](args)
        # Flushed here, so that a reader gone early is caught below.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        _to_null_device()
        return BROKEN_PIPE
    except OSError as exc:
        # A write error is not a failed check: it has a status of its own.
        if sys.stdout is not None:
            _to_null_device()
        status, line = OUTPUT_ERROR, f"error: cannot write output: {exc.strerror or exc}"
    except Exception as exc:
        usage = isinstance(exc, EngineDomainError)  # only a refusal raises it; any other exception is a bug
        status = USAGE_ERROR if usage else INTERNAL_ERROR
        line = f"{'error' if usage else 'internal error'}: {str(exc) or type(exc).__name__}"
    if sys.stderr is not None:  # None when closed at start-up; a line it cannot take is dropped
        with suppress(OSError):
            print(line, file=sys.stderr)
    return status
