"""The ``>>>`` examples in the package's docstrings run and print what they show.

Each listed module must keep at least one example: a module whose examples
were all deleted fails here rather than passing with nothing run.
"""

from __future__ import annotations

import doctest
import importlib

import pytest

#: Modules whose docstrings carry runnable examples.
MODULES = ["repro", "repro.graph.digraph", "repro.flow.network", "repro.session.session"]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    module = importlib.import_module(name)
    examples = [test for test in doctest.DocTestFinder().find(module) if test.examples]
    assert examples, f"{name} has no docstring example left"
    runner = doctest.DocTestRunner()
    report: list[str] = []
    for test in examples:
        runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
