"""Checks on the source text: the oldest supported Python parses it, and the package runs no code from text."""

from __future__ import annotations

import ast
from pathlib import Path

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
    # Relation texts are read as data (recurrence._read), never run.
    calls = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.func.id}"
        for path in sorted((ROOT / "src" / "triwords").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in {"eval", "exec", "compile"}
    ]
    assert calls == []
