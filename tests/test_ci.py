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
