"""The CLI's command table reads argv as the argparse parser it replaced did.

`build_parser` below is that parser, kept as the reference.  Hypothesis
draws argv from the CLI grammar, well formed or not, and both parsers must
reject it, or both print help for the same commands, or both accept it
with equal values.  The draws then run through `cli.main`: an accepted one
must exit 0 or 2, and a refused one 2, with one `error:` line and nothing
on stdout.  No draw is an internal error or prints a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from triwords import cli
from triwords.counting import ClassLabel
from triwords.engines import ENGINE_IDS


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

    p = sub.add_parser("table", help="all four classes and the total for n = 0..max_n")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--engine", default="decoupled", choices=ENGINE_IDS)
    p.add_argument("--format", default="table", choices=["table", "csv", "json"])

    p = sub.add_parser("bfile", help="emit an OEIS b-file (index value lines)")
    p.add_argument("sequence", choices=sorted(cli.OEIS_SEQUENCES))
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--offset", type=int, default=1, help="first emitted index (default 1)")

    p = sub.add_parser("validate", help="run all cross-engine and identity checks")
    p.add_argument("--max-n", type=int, required=True)

    p = sub.add_parser("bench", help="time engines computing all their classes at n = max_n")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--engines", required=True, help="comma-separated engine ids")

    return parser


def reference(argv: list[str]):
    """argparse's reading: "error", ("help", commands) or (command, values by option name)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            args = build_parser().parse_args(argv)
    except SystemExit as exit:
        if exit.code:
            return "error"
        usage = out.getvalue().split()[1:3]  # "triwords [-h]" or "triwords COMMAND"
        return "help", [usage[1]] if usage[1] in cli.COMMANDS else list(cli.COMMANDS)
    values = {{"cls": "class", "max_n": "max-n"}.get(k, k): v for k, v in vars(args).items() if k != "command"}
    return args.command, values


def table(argv: list[str]):
    try:
        return cli.parse(argv)
    except ValueError:
        return "error"


# The texts drawn as option values: valid ones, and ones argparse refuses
# or, for --engines, that bench refuses.  Ints come as int() reads them.
VALID = {
    "--class": [l.value for l in ClassLabel],
    "--engine": ENGINE_IDS,
    "--format": ["table", "csv", "json"],
    "--engines": ["coupled", "coupled,mod4", "brute,compsum", "genfun, closed"],
    "sequence": list(cli.OEIS_SEQUENCES),
}
INVALID = {
    "--class": ["a", "E", ""],
    "--engine": ["Coupled", "nope", "-1"],
    "--format": ["CSV", "xml"],
    "--engines": ["", ",", "nope", "-1.5", "- coupled"],
    "sequence": ["A000001", "a391468", "-5", "--"],
}
ODD_INTS = ["007", "-007", "1_0", "-0", " 5", "9" * 30, "-" + "9" * 30, "x", "", "1.5", "-1.5", "5-", "0x10", "-x", "--5"]
OPTIONS = ["--class", "--n", "--engine", "--format", "--max-n", "--offset", "--engines"]


@st.composite
def value(draw, name):
    if name in VALID:
        return draw(st.sampled_from(VALID[name] if draw(st.integers(0, 3)) else INVALID[name]))
    return str(draw(st.integers(-3, 60))) if draw(st.integers(0, 3)) else draw(st.sampled_from(ODD_INTS))


@st.composite
def item(draw, command):
    """One option, or a positional, "--", -h or --help, as argv tokens."""
    own = [name for name in cli.COMMANDS.get(command, ("", {}))[1] if name.startswith("--")]
    kind = draw(st.sampled_from(["own"] * 6 + ["any", "unknown", "positional", "marker", "help"]))
    if kind == "help":
        return draw(st.sampled_from([["-h"], ["--help"], ["--he"], ["--help=x"], ["-hh"], ["-hx"]]))
    if kind == "marker":
        return ["--"]
    if kind == "positional":
        return [draw(value("sequence"))]
    name = draw(st.sampled_from(own if kind == "own" and own else OPTIONS if kind == "any" else ["--bogus", "-x"]))
    text = draw(value(name))
    if name.startswith("--") and draw(st.integers(0, 3)) == 0:
        name = name[: draw(st.integers(2, len(name)))]  # a prefix, unique or not
    form = draw(st.sampled_from(["space"] * 3 + ["equals"] * 2 + ["bare"]))
    return {"space": [name, text], "equals": [f"{name}={text}"], "bare": [name]}[form]


@st.composite
def argv(draw):
    """A command (or none, or an unknown one) and its options, in any order."""
    command = draw(st.sampled_from([*cli.COMMANDS] * 3 + ["help", "Compute", None]))
    items = draw(st.lists(item(command), max_size=3))
    # Most draws give the values their command requires, so that many are accepted.
    if command in cli.COMMANDS and draw(st.integers(0, 3)):
        for name, (_, default) in cli.COMMANDS[command][1].items():
            if default is None:
                text = draw(value(name))
                items.append([text] if not name.startswith("-") else [name, text])
    tokens = [token for item in draw(st.permutations(items)) for token in item]
    head = draw(st.sampled_from([[]] * 8 + [["--bogus"], ["-h"], ["--"]]))
    return head + tokens if command is None else head + [command] + tokens


@settings(max_examples=400, deadline=None)
@given(argv())
def test_table_parser_reads_argv_as_argparse(argv):
    assert table(argv) == reference(argv)


def _small(command: str, values: dict) -> bool:
    cap = 20 if command == "validate" else 60
    return all(not isinstance(v, int) or abs(v) <= cap for v in values.values())


@settings(max_examples=150, deadline=None)
@given(argv())
def test_drawn_argv_exits_0_or_2(argv):
    parsed = reference(argv)
    if parsed != "error" and (parsed[0] == "help" or not _small(*parsed)):
        return
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if parsed == "error":
        # every refusal site raises the one refusal type, so a refused argv is never an internal error
        assert (status, out.getvalue(), len(err.getvalue().splitlines())) == (2, "", 1)
        assert err.getvalue().startswith("error: ")
    else:
        assert status in (0, 2)
