"""Setuptools shim.

This file exists so that legacy editable installs (``pip install -e .`` with
older setuptools/pip stacks that lack the ``wheel`` package, as in the
offline evaluation environment) keep working.

Dependencies
------------
numpy, the one runtime dependency: it builds each decision network's arc
columns in bulk, rewrites the penalty capacities of its retune, routes the
start flow before each solve and sorts a flow network's arcs into its CSR
index.
"""

from setuptools import setup

setup(
    install_requires=["numpy>=1.22"],
)
