"""The CI workflow runs the check list of tools/ci.sh, which holds its only copy."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_install_then_all():
    # read as plain text: PyYAML is not a test dependency
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    runs = re.findall(r"^\s*(?:-\s+)?run:\s*(.*?)\s*$", workflow, re.MULTILINE)
    assert runs == ["bash tools/ci.sh install", "bash tools/ci.sh all"]


def test_cli_runs_in_dev_mode():
    # Development mode and warnings as errors are exported once, at top level,
    # for every step; only the steps that load pip and pytest unset them.
    code = re.sub(r"(^|\s)#.*", r"\1", (ROOT / "tools" / "ci.sh").read_text())
    function = re.compile(r"^(\w+)\(\) \{\n(.*?)^\}", re.MULTILINE | re.DOTALL)
    found = {name: re.findall(r"\S*\s*\bPYTHON(?:DEVMODE|WARNINGS)\b\S*", body) for name, body in function.findall(code)}
    both = ["-u PYTHONDEVMODE", "-u PYTHONWARNINGS"]
    assert {name: f for name, f in found.items() if f} == {"install": both, "tests": both, "tests_capped": both}
    top_level = re.findall(r"^.*\bPYTHON(?:DEVMODE|WARNINGS)\b.*$", function.sub("", code), re.MULTILINE)
    assert top_level == ["export PYTHONDEVMODE=1 PYTHONWARNINGS=error"]
