"""Shared fixtures/helpers for the experiment benchmarks.

Every module in this directory regenerates one table or figure of the
evaluation (experiments E1–E12; each module's docstring says which one and
what it measures).  Timing numbers come from
pytest-benchmark; the paper-style rows/series are printed to stdout, so run
with ``pytest benchmarks/ --benchmark-only -s`` to see them (they are also
appended to ``benchmarks/results.txt``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_FILE = Path(__file__).resolve().parent / "results.txt"


def emit(text: str) -> None:
    """Print a paper-style table/series and append it to benchmarks/results.txt."""
    print("\n" + text + "\n")
    with RESULTS_FILE.open("a", encoding="utf-8") as handle:
        handle.write(text + "\n\n")


@pytest.fixture(scope="session", autouse=True)
def _reset_results_file():
    """Start each benchmark session with a fresh results file."""
    RESULTS_FILE.write_text("", encoding="utf-8")
    yield
