"""The package metadata that ``pip install .`` builds the ``dds-repro`` command from."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_setup_declares_the_distribution_name_and_version():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert completed.stdout.split()[-2:] == ["dds-repro", repro.__version__]
