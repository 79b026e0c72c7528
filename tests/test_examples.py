"""Smoke tests that run the README quickstart and every example script end-to-end."""

from __future__ import annotations

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
EXAMPLE_SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_has_expected_scripts():
    names = {path.name for path in EXAMPLE_SCRIPTS}
    assert "quickstart.py" in names
    assert "rating_fraud.py" in names
    assert "hub_authority_roles.py" in names
    assert "scalability_study.py" in names
    assert len(names) >= 4


@pytest.mark.parametrize("script", EXAMPLE_SCRIPTS, ids=lambda path: path.name)
def test_example_runs_cleanly(script):
    """Every example must run as a script in a fresh interpreter and produce output."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip(), f"{script.name} produced no output"


def test_quickstart_reports_influencer_block(capsys, monkeypatch):
    script = EXAMPLES_DIR / "quickstart.py"
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert "influencer_a" in out
    assert "core-exact" in out


def test_readme_quickstart_runs(capsys):
    """The README's first ``python`` block, the session-API quickstart, runs as printed."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme_quickstart"})
    assert "result_cache_hits" in capsys.readouterr().out
