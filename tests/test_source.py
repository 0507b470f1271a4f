"""Checks on the source text: the oldest supported Python parses it, and the package runs no code from text.

Only the module that reads the relation texts, relations, holds the parser,
and only the functions that read a request raise its refusal.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "perfbench", "demos") for path in (ROOT / top).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    # pyproject.toml and the CI matrix start at Python 3.10.  Under a newer
    # interpreter, feature_version makes the parser refuse syntax that 3.10
    # lacks.  The ast documentation calls this a best-effort attempt, so a
    # newer feature can still slip past.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_package_calls_no_eval_exec_or_compile():
    # Relation texts are read as data (relations._read), never run.
    calls = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.func.id}"
        for path in sorted((ROOT / "src" / "triwords").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in {"eval", "exec", "compile"}
    ]
    assert calls == []


def test_only_relations_imports_ast_or_matches():
    # Compiling a match statement, and loading ast, costs every command
    # that imports the module; the relation reader is validate's alone.
    # So its weight stays off the modules the other commands load.
    holders = set()
    for path in sorted((ROOT / "src" / "triwords").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            imports = isinstance(node, ast.Import) and any(alias.name == "ast" for alias in node.names)
            if imports or isinstance(node, ast.Match) or isinstance(node, ast.ImportFrom) and node.module == "ast":
                holders.add(path.name)
    assert holders == {"relations.py"}


def test_package_divides_nothing_with_slash():
    # Values may be Decimals computed in digits.EXACT, whose precision is the
    # largest libmpdec allows; there a quotient that does not terminate,
    # Decimal(1) / Decimal(3), tries to fill that precision and raises
    # MemoryError, not a trapped signal, so it escapes cli.main as a
    # traceback.  Division is written // or divmod, whose integer quotient
    # is exact.
    divisions = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "triwords").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert divisions == []


def test_package_keeps_no_functools_cache():
    # Point routes keep no state between calls.  A cached residue once
    # needed its own test to keep a value rounded in one decimal context
    # from reaching an exact one.
    names = {"lru_cache", "cache", "cached_property"}
    caches = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "triwords").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "functools" and {a.name for a in node.names} & names
        or isinstance(node, ast.Attribute) and node.attr in names
        and isinstance(node.value, ast.Name) and node.value.id == "functools"
    ]
    assert caches == []


def _refusal_raisers(node: ast.AST, where: str) -> Iterator[str]:
    """The innermost def around each `raise EngineDomainError...` below node, where is node's own."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "EngineDomainError":
                yield where
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else where
        yield from _refusal_raisers(child, inner)


def test_only_request_readers_raise_the_refusal():
    # cli.main exits 2 for engines.EngineDomainError alone, and 3 for any
    # other exception.  So a refusal is raised where argv, or the request it
    # names, is read and checked, never from inside an engine or a check.
    raisers = {
        f"{path.stem}.{where}"
        for path in sorted((ROOT / "src" / "triwords").rglob("*.py"))
        for where in _refusal_raisers(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    }
    assert raisers == {
        "cli._option",  # parse's reading of one token
        "cli.parse",
        "cli._bfile_stream",
        "cli._cmd_bench",
        "engines.check_domain",
        "engines.series",
        "relations.run_validation",
    }
