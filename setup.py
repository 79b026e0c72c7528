"""Setuptools shim.

This file exists so that legacy editable installs (``pip install -e .`` with
older setuptools/pip stacks that lack the ``wheel`` package, as in the
offline evaluation environment) keep working.

Extras
------
``vector``
    numpy, which speeds up the bulk build of a decision network, the
    penalty sweep of its retune and the start flow routed before each
    solve.  The package is fully functional without it: every min-cut runs
    ``dinic`` either way, the build and retune fall back to scalar loops,
    and each solve starts from zero flow instead of the routed start flow.
"""

from setuptools import setup

setup(
    extras_require={
        "vector": ["numpy>=1.22"],
    },
)
