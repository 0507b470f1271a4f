"""CLI surface: subcommands, formats, exit statuses, byte stability."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

from triwords import cli, closedform, recurrence
from triwords.cli import BROKEN_PIPE, OEIS_SEQUENCES, OUTPUT_ERROR, bfile_lines, main
from triwords.closedform import case_mod4
from triwords.counting import ClassLabel
from triwords.digits import EXACT, PIECE_DIGITS, STR_BITS, decimal_digits, to_decimal
from triwords.engines import ENGINE_IDS, ENGINES, bench_engine, compute_series, compute_value
from triwords.recurrence import coupled_sequence

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_decoupled_a3(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--class", "A", "--n", "3", "--engine", "decoupled")
        assert code == 0
        assert out == "2187\n"

    def test_coupled_d0(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--class", "D", "--n", "0", "--engine", "coupled")
        assert code == 0
        assert out == "0\n"

    def test_genfun_b4(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--class", "B", "--n", "4", "--engine", "genfun")
        assert code == 0
        assert out == "58806\n"

    def test_default_engine_is_decoupled(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--class", "C", "--n", "3")
        assert code == 0
        assert out == "2268\n"

    def test_out_of_domain_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--class", "A", "--n", "0", "--engine", "closed")
        assert code == 2
        assert "error" in err

    def test_internal_error_is_not_usage_error(self, capsys, monkeypatch):
        from triwords.ring import NotRationalInteger

        def broken(self):
            raise NotRationalInteger("simulated non-integer closed form")

        monkeypatch.setattr("triwords.ring.AlgebraicQ3i.to_integer", broken)
        code, out, err = run_cli(capsys, "compute", "--class", "A", "--n", "5", "--engine", "closed")
        assert code == 3
        assert out == ""
        assert err == "internal error: simulated non-integer closed form\n"

    def test_closed_form_remainder_is_internal_error(self, capsys, monkeypatch):
        # An x1^n coefficient of 3, not 2, adds 27^n to 18*A(n); 27^n is odd, so the sum is no multiple of 18.
        monkeypatch.setitem(closedform._ROOT_BASIS_X18, ClassLabel.A, (3, 6, 6))
        code, out, err = run_cli(capsys, "compute", "--class", "A", "--n", "5", "--engine", "rootbasis")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ")

    def test_non_integral_decimal_closed_form_is_internal_error(self, capsys, monkeypatch):
        # A's x1^n coefficient 2.5, not 2, adds 27^n / 2 to 18*A(n), a half that only a Decimal can hold:
        # 18 * 3^13 + 27^5 / 2 = 35872267.5 at n = 5
        monkeypatch.setitem(closedform._ROOT_BASIS_X18, ClassLabel.A, (Decimal("2.5"), 6, 6))
        code, out, err = run_cli(capsys, "compute", "--class", "A", "--n", "5", "--engine", "rootbasis")
        assert code == 3
        assert out == ""
        assert err == "internal error: 35872267.5 is not an integer\n"

    def test_decimal_signal_is_internal_error(self, capsys, monkeypatch):
        def undefined_quotient(labels, n, num=int):
            undefined = num(0) / num(0)  # InvalidOperation, which the exact context traps
            return (undefined,) * len(labels)

        monkeypatch.setattr("triwords.closedform.case_mod4_at", undefined_quotient)
        code, out, err = run_cli(capsys, "compute", "--class", "B", "--n", "5", "--engine", "mod4")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ")

    def test_transition_matrix_without_the_symmetry_is_internal_error(self, capsys, monkeypatch):
        from triwords import recurrence

        bad = (*recurrence.TRANSITION_MATRIX[:3], (18, 18, 17, 18))
        monkeypatch.setattr(recurrence, "TRANSITION_MATRIX", bad)
        code, out, err = run_cli(capsys, "compute", "--class", "A", "--n", "5", "--engine", "coupled")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ")

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"], ids=["csv", "json", "aligned"])
    def test_transition_matrix_without_the_symmetry_stops_a_table(self, capsys, monkeypatch, fmt):
        # rows start from coupled_at, which checks the matrix, so none is stepped by the broken one
        # (row 3 would have D = 13032, not 13122)
        bad = (*recurrence.TRANSITION_MATRIX[:3], (18, 18, 17, 18))
        monkeypatch.setattr(recurrence, "TRANSITION_MATRIX", bad)
        code, out, err = run_cli(capsys, "table", "--max-n", "4", "--engine", "coupled", "--format", fmt)
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ")

    def test_non_unit_generating_function_is_internal_error(self, capsys, monkeypatch):
        from triwords.genfun import RationalGF

        monkeypatch.setattr("triwords.genfun.gf_for_class", lambda label: RationalGF((1,), (2, -1)))
        code, out, err = run_cli(capsys, "compute", "--class", "A", "--n", "3", "--engine", "genfun")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ")

    def test_unclassifiable_counts_are_internal_error(self, capsys, monkeypatch):
        from triwords.counting import NotDivisibleBy3

        def broken(counts):
            raise NotDivisibleBy3(f"simulated misdecoded letter counts {counts}")

        monkeypatch.setattr("triwords.counting.classify", broken)
        code, out, err = run_cli(capsys, "compute", "--engine", "brute", "--class", "A", "--n", "2")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: simulated misdecoded letter counts")

    def test_any_internal_error_is_internal_error(self, capsys, monkeypatch):
        # cli names no internal error class: one it was never told about exits 3, as any exception but a refusal
        from triwords.counting import InternalError

        def broken(labels, n, num=int):
            raise InternalError("x")

        monkeypatch.setattr("triwords.closedform.case_mod4_at", broken)
        result = run_cli(capsys, "compute", "--engine", "mod4", "--class", "A", "--n", "5")
        assert result == (3, "", "internal error: x\n")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str cap before 3.11")
    def test_int_str_cap_is_restored(self, capsys):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            code, out, _ = run_cli(capsys, "compute", "--class", "D", "--n", "5000")
            cap = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(previous)
        assert code == 0
        assert len(out.strip()) > 5000
        assert cap == 5000

    def test_brute_cap_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--class", "A", "--n", "9", "--engine", "brute")
        assert code == 2
        assert "brute" in err

    def test_engines_print_identical_decimal_strings(self, capsys):
        outputs = set()
        for engine in ("compsum", "coupled", "decoupled", "closed", "rootbasis", "mod4", "genfun"):
            code, out, _ = run_cli(capsys, "compute", "--class", "B", "--n", "7", "--engine", engine)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    @pytest.mark.parametrize("engine", ["mod4", "closed", "rootbasis"])
    def test_large_values_print_as_str(self, capsys, engine, no_int_str_cap):
        # At n = 60000 every class has about 2.8*10**5 bits, past the size
        # where to_decimal leaves str() for decimal.
        for label in ClassLabel:
            result = run_cli(capsys, "compute", "--engine", engine, "--class", label.value, "--n", "60000")
            assert result == (0, str(compute_value(engine, label, 60000)) + "\n", ""), label

    # An n whose value spans several of the writer's pieces on every engine but the enumerators,
    # which reach one piece only, and a class for each.
    PIECES = {
        "brute": ("A", 5), "compsum": ("B", 300), "coupled": ("D", 50_000), "decoupled": ("A", 50_000),
        "quartic-c": ("C", 50_000), "closed": ("B", 50_001), "rootbasis": ("C", 50_002), "mod4": ("A", 50_003),
        "genfun": ("B", 50_000),
    }

    @pytest.mark.parametrize("engine", ENGINE_IDS)
    def test_value_written_in_pieces_is_str_of_the_decimal(self, capsys, engine):
        cls, n = self.PIECES[engine]
        with localcontext(EXACT):
            text = str(compute_value(engine, ClassLabel(cls), n, Decimal))
        assert engine in ("brute", "compsum") or len(text) > 4 * PIECE_DIGITS
        assert run_cli(capsys, "compute", "--engine", engine, "--class", cls, "--n", str(n)) == (0, text + "\n", "")

    @pytest.mark.parametrize("cls", ["A", "B", "C", "D"])
    @pytest.mark.parametrize("engine", ["closed", "rootbasis", "mod4"])
    def test_closed_form_value_costs_one_value(self, engine, cls):
        # The value has about 286,275 digits, 0.12 MB, and 3^(3n-2) itself peaks near 0.45 MiB.  Computing all four
        # classes for one, or printing the value's whole text, took the peak to 0.7-0.96 MiB.
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            assert main(["compute", "--engine", engine, "--class", cls, "--n", "5"]) == 0  # one-time allocations
            tracemalloc.start()
            try:
                code = main(["compute", "--engine", engine, "--class", cls, "--n", "200002"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 0.64 * 2**20

    def test_huge_value_prints_in_full(self, capsys, no_int_str_cap):
        code, out, _ = run_cli(capsys, "compute", "--class", "D", "--n", "3200")
        assert code == 0
        value = int(out)
        assert value == 2 * 3 ** (3 * 3200 - 1)
        assert len(out.strip()) == decimal_digits(value) > 4300


class TestTable:
    def test_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["n", "C_A", "C_B", "C_C", "C_D", "total"]
        assert lines[1].split() == ["0", "1", "0", "0", "0", "1"]
        assert lines[2].split() == ["1", "3", "6", "0", "18", "27"]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,C_A,C_B,C_C,C_D,total"
        row4 = lines[5].split(",")
        assert row4[3] == "58806"  # C_C at n = 4
        assert row4[5] == str(27**4)

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][2] == {"n": 2, "C_A": 63, "C_B": 90, "C_C": 90, "C_D": 486, "total": 729}

    def test_closed_engine_cannot_cover_n0(self, capsys):
        code, _, err = run_cli(capsys, "table", "--max-n", "3", "--engine", "closed")
        assert code == 2
        assert "n = 0" in err

    def test_formats_agree_with_bfile(self, capsys):
        code, csv_out, _ = run_cli(capsys, "table", "--max-n", "5", "--format", "csv")
        assert code == 0
        csv_c = [line.split(",")[3] for line in csv_out.splitlines()[2:]]  # n = 1..5
        code, bfile_out, _ = run_cli(capsys, "bfile", "A391470", "--max-n", "5")
        assert code == 0
        bfile_c = [line.split()[1] for line in bfile_out.splitlines()]
        assert csv_c == bfile_c


def _table_ints(fmt: str, out: str) -> list[list[int]]:
    """The data rows of `table` output as integers, header dropped."""
    if fmt == "json":
        return [list(row.values()) for row in json.loads(out)["rows"]]
    sep = "," if fmt == "csv" else None
    return [[int(cell) for cell in line.split(sep)] for line in out.splitlines()[1:]]


class TestTableFormats:
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("engine", ["coupled", "decoupled", "genfun"])
    def test_every_row_matches_series(self, capsys, engine, fmt):
        code, out, _ = run_cli(capsys, "table", "--max-n", "40", "--engine", engine, "--format", fmt)
        assert code == 0
        want = [[v.n, v.a, v.b, v.c, v.d, v.total] for v in compute_series(engine, 40)]
        assert _table_ints(fmt, out) == want
        if fmt == "table":
            assert len({len(line) for line in out.splitlines()}) == 1

    @pytest.mark.parametrize("engine, max_n", [("coupled", 300), ("decoupled", 300), ("genfun", 300),
                                               ("compsum", 30), ("brute", 5)])
    def test_aligned_table_reads_one_stream(self, capsys, monkeypatch, engine, max_n):
        # the widths come from the point route at max_n, so the rows are read once
        calls = []
        real = cli.series

        def counting_series(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "series", counting_series)
        code, out, _ = run_cli(capsys, "table", "--max-n", str(max_n), "--engine", engine)
        assert code == 0
        assert len(calls) == 1
        assert out == _expected_table(engine, max_n, "table")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("--max-n", "3", "--engine", "closed"),
            ("--max-n", "3", "--engine", "quartic-c"),
            ("--max-n", "-1"),
            ("--max-n", "6", "--engine", "brute"),
        ],
        ids=["closed", "quartic-c", "negative", "brute-cap"],
    )
    def test_refusal_writes_nothing(self, capsys, argv, fmt):
        code, out, err = run_cli(capsys, "table", *argv, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_csv_streams_rows(self, fmt):
        argv = ["table", "--max-n", "1000", "--engine", "coupled", "--format", fmt]
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 2**20


def _expected_table(engine: str, max_n: int, fmt: str) -> str:
    """`table` output in any format, built from the int series with to_decimal, or json.dumps for json.

    to_decimal is str() without the int-to-str cap, bound here before any fixture patches it out.
    """
    header = ["n", "C_A", "C_B", "C_C", "C_D", "total"]
    if fmt == "json":
        rows = [dict(zip(header, (v.n, *v.as_tuple(), v.total))) for v in compute_series(engine, max_n)]
        return json.dumps({"engine": engine, "max_n": max_n, "rows": rows}, indent=2) + "\n"
    lines = [header] + [[to_decimal(x) for x in (v.n, *v.as_tuple(), v.total)] for v in compute_series(engine, max_n)]
    if fmt == "csv":
        return "".join(",".join(line) + "\n" for line in lines)
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join("  ".join(cell.rjust(w) for cell, w in zip(line, widths)) + "\n" for line in lines)


class TestStreamedText:
    """table and bfile compute their rows in Decimal; their text must be str() of the int values."""

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    @pytest.mark.parametrize(
        "engine, max_n", [("coupled", 400), ("decoupled", 400), ("genfun", 400), ("compsum", 60), ("brute", 5)]
    )
    def test_table(self, capsys, engine, max_n, fmt):
        result = run_cli(capsys, "table", "--max-n", str(max_n), "--engine", engine, "--format", fmt)
        assert result == (0, _expected_table(engine, max_n, fmt), "")

    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("sequence", sorted(OEIS_SEQUENCES))
    def test_bfile(self, capsys, sequence, offset):
        label = OEIS_SEQUENCES[sequence]
        want = "".join(f"{v.n} {v.component(label)}\n" for v in compute_series("coupled", 400)[offset:])
        assert run_cli(capsys, "bfile", sequence, "--max-n", "400", "--offset", str(offset)) == (0, want, "")

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_table_in_caller_context(self, capsys, fmt):
        # Values at n = 400 have about 570 digits, so 28 would round them.
        with localcontext() as ctx:
            ctx.prec = 28
            ctx.clear_traps()
            result = run_cli(capsys, "table", "--max-n", "400", "--engine", "genfun", "--format", fmt)
        assert result == (0, _expected_table("genfun", 400, fmt), "")

    def test_bfile_in_caller_context(self, capsys):
        want = [f"{v.n} {v.c}" for v in compute_series("coupled", 400)]
        with localcontext() as ctx:
            ctx.prec = 28
            ctx.clear_traps()
            result = run_cli(capsys, "bfile", "A391470", "--max-n", "400", "--offset", "0")
            lines = bfile_lines("A391470", 400, 0)
        assert result == (0, "".join(line + "\n" for line in want), "")
        assert lines == want

    def test_bfile_row_past_str_bits(self, capsys):
        value = case_mod4(ClassLabel.A, 7000)
        assert value.bit_length() > STR_BITS
        want = f"7000 {to_decimal(value)}\n"
        assert run_cli(capsys, "bfile", "A391468", "--max-n", "7000", "--offset", "7000") == (0, want, "")


class TestEnumeratorsPrintDecimals:
    """Every printed value is an exact Decimal; the registry converts the enumerators' ints, so nothing renders an int."""

    @pytest.fixture(autouse=True)
    def refuse_to_decimal(self, monkeypatch):
        def refuse(n):
            raise AssertionError("a command rendered an int through to_decimal")

        monkeypatch.setattr("triwords.digits.to_decimal", refuse)
        monkeypatch.setattr("triwords.cli.to_decimal", refuse, raising=False)

    # compsum's values at n = 500 have over 640 digits, the lowest int-to-str cap CPython accepts, so the
    # expected text comes from the int values through this module's to_decimal, which the fixture leaves alone
    @pytest.mark.parametrize("engine, n", [("brute", 0), ("brute", 5), ("compsum", 500)])
    def test_compute(self, capsys, engine, n):
        for label in ClassLabel:
            want = to_decimal(compute_value(engine, label, n)) + "\n"
            assert run_cli(capsys, "compute", "--engine", engine, "--class", label.value, "--n", str(n)) == (0, want, "")

    @pytest.mark.parametrize("engine, n", [("brute", 5), ("compsum", 500)])
    def test_bench(self, capsys, engine, n):
        strings = [to_decimal(v) for v in bench_engine(engine, n)[1].values()]
        column = ",".join(f"{label.value}={s}" for label, s in zip(ClassLabel, strings))
        if len(column) > 60:
            column = "blake2b:" + hashlib.blake2b(",".join(strings).encode(), digest_size=8).hexdigest()
        code, out, err = run_cli(capsys, "bench", "--max-n", str(n), "--engines", engine)
        (row,) = out.splitlines()[1:]
        name, _, digits, values = row.split()
        assert (code, err, name, digits, values) == (0, "", engine, str(sum(map(len, strings))), column)

    @pytest.mark.parametrize("engine, max_n", [("brute", 5), ("compsum", 500)])
    def test_aligned_table(self, capsys, engine, max_n):
        # the aligned table names no engine, so coupled's rows are the expected text
        result = run_cli(capsys, "table", "--engine", engine, "--max-n", str(max_n))
        assert result == (0, _expected_table("coupled", max_n, "table"), "")


class TestBfile:
    def test_class_a_sequence(self, capsys):
        code, out, _ = run_cli(capsys, "bfile", "A391468", "--max-n", "3")
        assert code == 0
        assert out == "1 3\n2 63\n3 2187\n"

    def test_class_c_sequence(self, capsys):
        code, out, _ = run_cli(capsys, "bfile", "A391470", "--max-n", "2")
        assert code == 0
        assert out == "1 0\n2 90\n"

    def test_class_b_sequence(self, capsys):
        code, out, _ = run_cli(capsys, "bfile", "A391469", "--max-n", "1")
        assert code == 0
        assert out == "1 6\n"

    def test_offset_zero_includes_n0(self, capsys):
        code, out, _ = run_cli(capsys, "bfile", "A391468", "--max-n", "2", "--offset", "0")
        assert code == 0
        assert out == "0 1\n1 3\n2 63\n"

    def test_byte_stable(self, capsys):
        runs = {run_cli(capsys, "bfile", "A391469", "--max-n", "40")[1] for _ in range(3)}
        assert len(runs) == 1

    def test_unknown_sequence_rejected_by_parser(self, capsys):
        code, out, err = run_cli(capsys, "bfile", "A000001", "--max-n", "3")
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: .*'A000001'.*\n", err)

    def test_unknown_sequence_library_error(self):
        with pytest.raises(Exception):
            bfile_lines("A000001", 3)

    @pytest.mark.parametrize("offset", [0, 1, 5])
    @pytest.mark.parametrize("sequence", sorted(OEIS_SEQUENCES))
    def test_matches_coupled_across_seeds(self, sequence, offset):
        label = OEIS_SEQUENCES[sequence]
        want = [f"{v.n} {v.component(label)}" for v in coupled_sequence(40)[offset:]]
        assert bfile_lines(sequence, 40, offset) == want

    def test_max_n_must_be_positive(self, capsys):
        code, _, err = run_cli(capsys, "bfile", "A391468", "--max-n", "0")
        assert code == 2
        assert "max_n" in err

    def test_offset_0_to_max_n_0_is_one_line(self, capsys):
        # the range 0..max_n holds one index when both are 0
        assert bfile_lines("A391468", 0, 0) == ["0 1"]
        assert run_cli(capsys, "bfile", "A391468", "--max-n", "0", "--offset", "0") == (0, "0 1\n", "")

    @pytest.mark.parametrize("offset", [[], ["--offset", "0"]], ids=["default-offset", "offset-0"])
    def test_negative_max_n_is_named_before_the_offset(self, capsys, offset):
        code, out, err = run_cli(capsys, "bfile", "A391468", "--max-n", "-1", *offset)
        assert (code, out) == (2, "")
        assert err == "error: max_n must be nonnegative, got -1\n"
        assert run_cli(capsys, "table", "--max-n", "-1") == (2, "", err)

    @pytest.mark.parametrize("offset", [-1, 6])
    def test_offset_outside_0_to_max_n_rejected(self, capsys, offset):
        with pytest.raises(ValueError, match=f"^offset must be in 0..max_n, got {offset}$"):
            bfile_lines("A391468", 5, offset)
        code, out, err = run_cli(capsys, "bfile", "A391468", "--max-n", "5", "--offset", str(offset))
        assert (code, out) == (2, "")
        assert f"offset must be in 0..max_n, got {offset}" in err

    def test_streams_lines(self):
        argv = ["bfile", "A391470", "--max-n", "2000"]
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 2**20


class TestValidate:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--max-n", "8")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        names = [line.split()[1] for line in lines[:-1]]
        assert names == sorted(names)
        assert "20/20 checks passed" in lines[-1]
        assert "n=4: 59535+58806+58806+354294 = 531441 = 3^12" in out

    def test_too_small_max_n(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--max-n", "3")
        assert code == 2
        assert "max_n" in err

    @pytest.mark.parametrize(
        "bad_n, shown",
        [(7, "1162320517 != 1162320516"), (120, "<171 digits> != <171 digits>")],
    )
    def test_mismatch_names_index_class_and_values(self, capsys, monkeypatch, bad_n, shown):
        # mod4 with C one too large at a single index; a value past 40 digits shows by its size
        real = closedform.case_mod4_at

        def off_by_one(labels, n, num=int):
            return tuple(v + (n == bad_n and label is ClassLabel.C) for label, v in zip(labels, real(labels, n, num)))

        monkeypatch.setattr("triwords.closedform.case_mod4_at", off_by_one)
        code, out, _ = run_cli(capsys, "validate", "--max-n", "120")
        assert code == 1
        assert f"FAIL  engine/mod4-vs-coupled: mismatch at n={bad_n} class C: {shown}\n" in out
        assert "19/20 checks passed" in out

    def test_reference_point_route_is_checked(self, capsys, monkeypatch):
        # _six_mul with 3 * f1 * e2 changed to 4 * f1 * e2: only coupled's point route multiplies in six-entry form
        real = recurrence._six_mul

        def mutant(x, y):
            *head, g = real(x, y)
            return (*head, g + x[4] * y[3])  # x[4] is f1, y[3] is e2

        monkeypatch.setattr(recurrence, "_six_mul", mutant)
        code, out, _ = run_cli(capsys, "validate", "--max-n", "300")
        assert code == 1
        assert "FAIL  engine/coupled-point-vs-stream: point route mismatch at n=3 class D: 14094 != 13122\n" in out
        assert "19/20 checks passed" in out

    def test_identity_index_counts(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--max-n", "40")
        assert code == 0
        counts = dict(re.findall(r"^PASS  identity/(\S+): .* \((\d+) indices\)$", out, re.MULTILINE))
        assert counts == {
            "a-step-sans-d": "40",
            "ab-window-narrow": "39",
            "ab-window-wide": "38",
            "c-from-ab-window": "39",
            "c-step-sans-d": "40",
            "cd-window-a": "39",
            "cd-window-b": "39",
            "d-minus-3c": "40",
            "d-prev-from-ab": "40",
        }

    def test_unreadable_identity_text_is_internal_error(self, capsys, relation_texts):
        # a typo in a relation text ends in exit 3, naming the text and the piece, not in a traceback
        relations = dict(recurrence.IDENTITY_RELATIONS)
        bad = relations["cd-window-b"] = relations["cd-window-b"].replace("C(n+1)", "E(n+1)")
        relation_texts(relations.items())
        code, out, err = run_cli(capsys, "validate", "--max-n", "40")
        assert (code, out) == (3, "")
        assert err == f"internal error: cannot read 'E(n+1)' in the relation {bad!r}\n"

    def test_failure_exit_status(self, capsys, monkeypatch):
        from triwords.relations import CheckResult

        monkeypatch.setattr(
            "triwords.relations.run_validation",
            lambda max_n: [CheckResult("engine/fake", False, "mismatch at n=7")],
        )
        code, out, _ = run_cli(capsys, "validate", "--max-n", "5")
        assert code == 1
        assert "FAIL" in out


class TestBench:
    def test_two_engines_identical_values(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--max-n", "200", "--engines", "coupled,decoupled")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 2
        values = {row.split()[-1] for row in rows}
        assert len(values) == 1

    def test_brute_matches_coupled(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--max-n", "4", "--engines", "brute,coupled")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len({row.split()[-1] for row in rows}) == 1

    def test_empty_engine_list(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--max-n", "5", "--engines", "")
        assert code == 2
        assert "no engines" in err

    def test_unknown_engine(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--max-n", "5", "--engines", "coupled,warp")
        assert code == 2
        assert "warp" in err

    @pytest.mark.parametrize("max_n, engines", [("12", "coupled,brute"), ("0", "coupled,closed")])
    def test_domain_refusal_writes_nothing(self, capsys, max_n, engines):
        code, out, err = run_cli(capsys, "bench", "--max-n", max_n, "--engines", engines)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_long_values_print_their_digest(self, capsys):
        # Past 60 characters the value column is the blake2b digest of the
        # classes' decimal strings, joined by commas in class order.
        strings = [to_decimal(compute_value("coupled", label, 20)) for label in ClassLabel]
        assert len(",".join(f"{label.value}={s}" for label, s in zip(ClassLabel, strings))) > 60
        digest = "blake2b:" + hashlib.blake2b(",".join(strings).encode(), digest_size=8).hexdigest()
        code, out, _ = run_cli(capsys, "bench", "--max-n", "20", "--engines", "coupled,mod4,genfun")
        assert code == 0
        assert [row.split()[-1] for row in out.splitlines()[1:]] == [digest] * 3


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "triwords", "bfile", "A391468", "--max-n", "4"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 3\n2 63\n3 2187\n4 59535\n"


def test_usage_error_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "triwords", "compute", "--class", "A", "--n", "-1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(r"error: .+\n", proc.stderr)


def test_script_and_module_share_the_process_entry():
    scripts = re.search(r"(?ms)^\[project\.scripts\]\n(.*?)^\[", (ROOT / "pyproject.toml").read_text()).group(1)
    assert scripts.strip() == 'triwords = "triwords.__main__:run"'


HELP_LINES = {
    "compute": "one class count at one index",
    "table": "all four classes and the total for n = 0..max_n",
    "bfile": "emit an OEIS b-file (index value lines)",
    "validate": "run all cross-engine and identity checks",
    "bench": "time engines computing all their classes at n = max_n",
}


@pytest.mark.parametrize(
    "argv, commands",
    [
        (["-h"], list(HELP_LINES)),
        (["--help"], list(HELP_LINES)),
        (["bfile", "--help"], ["bfile"]),
        (["compute", "--class", "A", "-h", "--n", "x"], ["compute"]),
    ],
)
def test_help_prints_the_usage_of_the_commands_asked_for(capsys, argv, commands):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: triwords")
    assert [line for line in out.splitlines() if line.startswith("  triwords ")] == [
        f"  triwords {command}: {HELP_LINES[command]}" for command in commands
    ]
    if commands == ["bfile"]:
        assert "    --offset int (default 1)" in out.splitlines()


def test_main_in_process_neither_exits_nor_touches_the_collector(capsys, monkeypatch):
    # Tests and tools run main in process: only the process entry ends the process.
    calls = []
    for name in ("freeze", "unfreeze", "disable", "enable", "collect"):
        monkeypatch.setattr(gc, name, lambda *args, name=name: calls.append(name))
    monkeypatch.setattr(os, "_exit", lambda status: calls.append("_exit"))
    assert main(["compute", "--class", "A", "--n", "3"]) == 0
    assert main(["compute", "-h"]) == 0
    assert main(["compute", "--class", "A"]) == 2
    assert calls == []
    assert not any("gc." in path.read_text() for path in (ROOT / "src" / "triwords").glob("*.py"))


# The two process entries: `python -m triwords`, and the form of the
# installed script's wrapper, whose sys.exit(run()) never returns.
ENTRIES = {
    "module": ["-m", "triwords"],
    "script": ["-c", "import sys; from triwords.__main__ import run; sys.exit(run())"],
}
# Failures set up before the entry runs, by a sitecustomize module, which
# the interpreter imports at start-up.
FAILURES = {
    "check": (
        "import triwords.relations as relations\n"
        "relations.run_validation = lambda max_n: [relations.CheckResult('engine/fake', False, 'mismatch at n=7')]\n"
    ),
    "internal": (
        "import triwords.closedform as closedform\nfrom triwords.counting import InternalError\n"
        "def broken(*args):\n    raise InternalError('x')\nclosedform.case_mod4_at = broken\n"
    ),
    "row 2": (
        "import triwords.cli as cli\nfrom triwords.counting import InternalError\nrows = cli.series\n"
        "def series(*args):\n    for row in rows(*args):\n        if row.n == 2:\n"
        "            raise InternalError('boom at 2')\n        yield row\ncli.series = series\n"
    ),
}


def _run_entry(tmp_path, entry, argv, failure=None, closed_stdout=False):
    """(status, stdout, stderr) of one process; a closed stdout is a pipe whose reader is gone."""
    (tmp_path / "sitecustomize.py").write_text(FAILURES.get(failure, ""))
    env = dict(os.environ, PYTHONPATH=f"{tmp_path}{os.pathsep}{ROOT / 'src'}")
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, *entry, *argv]
    if not closed_stdout:
        proc = subprocess.run(command, capture_output=True, env=env, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(command, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    return proc.returncode, b"", proc.stderr


# main called in process, in a process of its own, with the same failure set up.
IN_PROCESS = ["-c", "import sys; from triwords.cli import main; sys.exit(main(sys.argv[1:]))"]


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize(
    "argv, failure, closed_stdout, status",
    [
        (["compute", "--class", "A", "--n", "3"], None, False, 0),
        (["validate", "--max-n", "5"], "check", False, 1),
        (["compute", "--class", "A", "--n", "-1"], None, False, 2),
        (["compute", "--klass", "A", "--n", "3"], None, False, 2),
        (["compute", "--engine", "mod4", "--class", "A", "--n", "5"], "internal", False, 3),
        (["bfile", "A391470", "--max-n", "300"], None, True, BROKEN_PIPE),
    ],
    ids=["ok", "check-failed", "usage", "parse", "internal", "reader-gone"],
)
def test_process_entry_exits_as_main_returns(tmp_path, entry, argv, failure, closed_stdout, status):
    got = _run_entry(tmp_path, ENTRIES[entry], argv, failure, closed_stdout)
    assert got == _run_entry(tmp_path, IN_PROCESS, argv, failure, closed_stdout)
    assert got[0] == status


@pytest.mark.parametrize("entry", ENTRIES)
def test_failure_after_buffered_output_with_reader_gone(tmp_path, entry):
    # The rows before the failure are still in stdout's buffer when main
    # returns; the entry's own flush meets the closed pipe and keeps main's status.
    argv = ["table", "--format", "csv", "--max-n", "5", "--engine", "coupled"]
    got = _run_entry(tmp_path, ENTRIES[entry], argv, "row 2", closed_stdout=True)
    assert got == (3, b"", b"internal error: boom at 2\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--class", "A", "--n", "5"],
        ["table", "--format", "csv", "--max-n", "5"],
        ["bfile", "A391468", "--max-n", "5"],
        ["validate", "--max-n", "4"],
        ["bench", "--max-n", "4", "--engines", "coupled"],
        ["compute", "-h"],
    ],
    ids=["compute", "table-csv", "bfile", "validate", "bench", "help"],
)
def test_lean_start(argv):
    # No command loads OpenSSL through hashlib, or fractions; the command
    # table reads argv, and help, without argparse, gettext, getopt or locale.
    # -S keeps site's own imports out of the list.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "triwords", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "triwords.cli" in imported
    assert not imported & {"hashlib", "_hashlib", "fractions", "argparse", "gettext", "getopt", "locale"}


# The engine modules, outside the core (cli, counting, digits, engines) that every command loads.
ENGINE_MODULES = {"closedform", "genfun", "recurrence", "ring"}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        *(
            pytest.param(["compute", "--class", "C", "--n", "5", "--engine", engine], loaded, id=f"compute-{engine}")
            for engine, loaded in [
                ("brute", set()),
                ("compsum", set()),
                ("coupled", {"recurrence"}),
                ("decoupled", {"recurrence"}),
                ("quartic-c", {"recurrence"}),
                ("closed", {"closedform", "ring"}),
                ("rootbasis", {"closedform", "ring"}),
                ("mod4", {"closedform", "ring"}),
                ("genfun", {"genfun"}),
            ]
        ),
        pytest.param(["table", "--format", "csv", "--max-n", "5"], {"recurrence"}, id="table-csv"),
        pytest.param(["bfile", "A391468", "--max-n", "5"], {"recurrence"}, id="bfile"),
        pytest.param(["validate", "--max-n", "4"], ENGINE_MODULES | {"relations"}, id="validate"),
        pytest.param(["bench", "--max-n", "4", "--engines", ",".join(ENGINE_IDS)], ENGINE_MODULES, id="bench"),
    ],
)
def test_each_command_loads_only_its_engine_modules(argv, loaded):
    # sys.modules, not -X importtime, whose list leaves out importlib.import_module,
    # by which the registry loads an engine's module when it first runs one of its routes.
    script = (
        "import contextlib, io, json, sys\nfrom triwords.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = set(json.loads(proc.stdout))
    assert not modules & {"dataclasses", "inspect"}
    package = {name.removeprefix("triwords.") for name in modules if name.startswith("triwords.")}
    assert package == {"cli", "counting", "digits", "engines"} | loaded
    # the parser that reads the relation texts loads with relations alone
    assert ("ast" in modules) == ("relations" in loaded)


def test_importing_recurrence_loads_no_relation_reader():
    # recurrence holds the relation texts as data; relations reads them
    script = (
        "import json, sys, triwords.recurrence\n"
        "print(json.dumps(['triwords.relations' in sys.modules, 'ast' in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False]


def test_exports_are_their_home_modules_objects():
    import triwords

    homes = {
        "closedform": ["case_mod4", "closed_form", "root_basis"],
        "counting": ["ClassLabel", "brute_force_words", "classify", "composition_sum", "direct_sum", "trinomial"],
        "digits": ["decimal_digits"],
        "engines": ["bench_engine", "compute_value"],
        "genfun": ["gf_coefficients", "gf_for_class"],
        "recurrence": ["TRANSITION_MATRIX", "coupled_sequence", "decoupled_d", "decoupled_third_order", "quartic_c"],
        "relations": ["identity_suite"],
    }
    assert sorted(triwords.__all__) == sorted(name for names in homes.values() for name in names)
    for home, names in homes.items():
        module = importlib.import_module(f"triwords.{home}")
        for name in names:
            assert getattr(triwords, name) is getattr(module, name)
    with pytest.raises(AttributeError):
        triwords.no_such_export


def test_decimal_digits_export_loads_only_digits():
    script = "import json, sys, triwords\ntriwords.decimal_digits\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [name for name in json.loads(proc.stdout) if name.startswith("triwords")] == ["triwords", "triwords.digits"]


def test_bench_hashes_without_openssl():
    # bench hashes with CPython's own BLAKE2, `_blake2`, which hashlib only
    # re-exports, so its digest is hashlib's and OpenSSL is never loaded.
    import _blake2

    assert hashlib.blake2b is _blake2.blake2b
    argv = ["bench", "--max-n", "4000", "--engines", "coupled"]
    strings = [to_decimal(v) for v in bench_engine("coupled", 4000)[1].values()]
    digest = "blake2b:" + hashlib.blake2b(",".join(strings).encode(), digest_size=8).hexdigest()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "triwords", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    (row,) = proc.stdout.splitlines()[1:]
    assert row.split()[-1] == digest
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "_blake2" in imported
    assert not imported & {"hashlib", "_hashlib"}
    if sys.platform.startswith("linux"):
        # The shared objects a process maps are listed in /proc/self/maps.
        script = (
            "import sys\nfrom triwords.cli import main\n"
            f"assert main({argv!r}) == 0\nsys.stderr.write(open('/proc/self/maps').read())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].split()[-1] == digest
        assert "libcrypto" not in proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["bfile", "A391470", "--max-n", "3000"],
        ["table", "--engine", "coupled", "--max-n", "2000", "--format", "csv"],
        # Small enough to stay in stdout's buffer until the command ends.
        ["compute", "--class", "A", "--n", "300"],
    ],
    ids=["bfile", "table-csv", "compute"],
)
def test_closed_stdout_exits_quietly(argv, unbuffered):
    # The read end is closed before the command starts, as by a `| head`
    # that has already exited, so every write to stdout fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "triwords", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (BROKEN_PIPE, b"")


def test_reader_gone_after_the_first_piece_exits_quietly():
    # The value has 286,272 digits, more than the pipe holds, so the writes after the reader goes fail.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "triwords", "compute", "--engine", "mod4", "--class", "A", "--n", "200000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.read(PIECE_DIGITS)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert len(first) == PIECE_DIGITS and first.isdigit()
    assert (proc.returncode, err) == (BROKEN_PIPE, b"")


def _assert_output_error(proc):
    # A write error has its own status, 74 (EX_IOERR), not a failed check's 1, and one line of its own.
    (line,) = proc.stderr.decode().splitlines()
    assert (proc.returncode, line.startswith("error: cannot write output: ")) == (OUTPUT_ERROR, True)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--class", "A", "--n", "300"],
        ["table", "--max-n", "3000", "--format", "csv"],
        ["bfile", "A391470", "--max-n", "300"],
        ["validate", "--max-n", "40"],
    ],
    ids=["compute", "table-csv", "bfile", "validate"],
)
def test_full_stdout_is_an_output_error(argv, unbuffered):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED=unbuffered)
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "triwords", *argv], stdout=full, stderr=subprocess.PIPE, env=env, timeout=60
        )
    _assert_output_error(proc)


@pytest.mark.skipif(os.name != "posix", reason="closes stdout with a POSIX shell")
def test_stdout_closed_at_start_is_an_output_error():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = 'exec "$0" -m triwords compute --class A --n 1 >&-'
    proc = subprocess.run(["sh", "-c", script, sys.executable], stderr=subprocess.PIPE, env=env, timeout=60)
    _assert_output_error(proc)


@pytest.mark.skipif(os.name != "posix" or not os.path.exists("/dev/full"), reason="redirects with a POSIX shell")
@pytest.mark.parametrize(
    "argv, redirect, status",
    [
        ("compute --class A --n -1", "2>&-", 2),
        ("compute --class A --n 1", ">/dev/full 2>/dev/full", OUTPUT_ERROR),
        ("table --format csv --max-n 3000", ">/dev/full 2>/dev/full", OUTPUT_ERROR),
    ],
    ids=["usage-stderr-closed", "compute-both-full", "table-both-full"],
)
def test_unwritable_stderr_keeps_the_status(argv, redirect, status):
    # The error line is lost, not printed on stdout, and the status is the one the
    # request earned, not a failed check's 1.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = f'exec "$0" -m triwords {argv} {redirect}'
    proc = subprocess.run(["sh", "-c", script, sys.executable], capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (status, b"")


@pytest.mark.parametrize(
    "exc", ["ValueError", "TypeError", "ZeroDivisionError", "AttributeError", "MemoryError", "RecursionError"]
)
@pytest.mark.parametrize(
    "target, argv, printed",
    [
        ("closedform.case_mod4_at", ["compute", "--engine", "mod4", "--class", "A", "--n", "5"], b""),
        # the header and row 0, taken from the point route, stream out before the first step
        (
            "recurrence.coupled_step",
            ["table", "--engine", "coupled", "--max-n", "5", "--format", "csv"],
            b"n,C_A,C_B,C_C,C_D,total\n0,1,0,0,0,1\n",
        ),
        ("genfun.gf_at", ["validate", "--max-n", "10"], b""),
    ],
    ids=["point-route", "step", "validate-check"],
)
def test_any_other_exception_is_internal_error(tmp_path, monkeypatch, target, argv, printed, exc):
    # Not a refusal, so no usage error, a plain ValueError included; and no
    # traceback with the status of a failed check.
    module, name = target.split(".")
    failure = f"import triwords.{module} as m\ndef broken(*args):\n    raise {exc}\nm.{name} = broken\n"
    monkeypatch.setitem(FAILURES, exc, failure)
    status, out, err = _run_entry(tmp_path, ENTRIES["module"], argv, exc)
    assert (status, out, err.decode().splitlines()) == (3, printed, [f"internal error: {exc}"])


def test_bench_binds_the_route_before_its_clock_starts():
    # A route imports its engine's module on first use; bench must not time that.
    script = (
        "import json, sys, time\nfrom triwords import engines\n"
        "assert 'triwords.closedform' not in sys.modules\n"
        "seen, clock = [], time.perf_counter\n"
        "def spy():\n    seen.append('triwords.closedform' in sys.modules)\n    return clock()\n"
        "time.perf_counter = spy\nengines.bench_engine('closed', 50)\nprint(json.dumps(seen))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True, True]


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--engine", "mod4", "--class", "A", "--n", "60000"],
        ["compute", "--class", "D", "--n", "3200"],
        *(["table", "--max-n", "700", "--format", fmt] for fmt in ("table", "csv", "json")),
        ["bfile", "A391468", "--max-n", "700"],
        ["bench", "--max-n", "700", "--engines", "coupled,mod4"],
    ],
    ids=["compute-mod4", "compute-D", "table", "table-csv", "table-json", "bfile", "bench"],
)
def test_lowest_int_str_cap(capsys, argv):
    # 640 digits is the lowest int-to-str cap CPython accepts, and every
    # command here renders values past it.  bench's second column, seconds,
    # differs from run to run; the pattern is anchored at line starts, so
    # it stays linear time on lines of thousands of digits.
    def mask(text):
        return re.sub(r"(?m)^(\S+ +)\d+\.\d+", r"\1<seconds>", text)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONINTMAXSTRDIGITS="640")
    proc = subprocess.run(
        [sys.executable, "-m", "triwords", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    _, out, _ = run_cli(capsys, *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert mask(proc.stdout) == mask(out)


def _digest_grid() -> list[list[str]]:
    """Every command of the byte-stability grid, in a fixed order."""
    grid = []
    for engine, info in ENGINES.items():
        for n in (1, 5) if engine == "brute" else (1, 5, 300):
            grid += (["compute", "--engine", engine, "--class", label.value, "--n", str(n)] for label in info.labels)
    for engine in ("coupled", "decoupled", "genfun", "compsum"):
        grid += (["table", "--engine", engine, "--max-n", "60", "--format", fmt] for fmt in ("csv", "json", "table"))
    grid.append(["table", "--engine", "brute", "--max-n", "5"])
    for sequence in OEIS_SEQUENCES:
        grid += (["bfile", sequence, "--max-n", "60", "--offset", str(offset)] for offset in (0, 1, 5, 60))
    grid.append(["validate", "--max-n", "40"])
    grid.append(["bench", "--max-n", "300", "--engines", ",".join(e for e in ENGINE_IDS if e != "brute")])
    return grid


def _output_digests() -> dict[str, str]:
    """The SHA-256 of each grid command's stdout, by command line; bench's seconds column is left out."""
    digests = {}
    for argv in _digest_grid():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0, argv
        text = out.getvalue()
        if argv[0] == "bench":
            text = re.sub(r"(?m)^(\S+ +)\S+ +", r"\1", text)  # seconds differ from run to run
        digests[" ".join(argv)] = hashlib.sha256(text.encode()).hexdigest()
    return digests


DIGESTS = ROOT / "tests" / "cli_digests.json"


def test_output_digests():
    # The digests were recorded from an earlier build, so a change that
    # keeps every printed byte matches them.  A change meant to alter the
    # output records them afresh with `PYTHONPATH=src python tests/test_cli.py`.
    recorded = json.loads(DIGESTS.read_text())
    got = _output_digests()
    assert list(got) == list(recorded)
    assert [command for command in got if got[command] != recorded[command]] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_output_digests(), indent=1) + "\n")
