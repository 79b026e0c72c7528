"""Packaging for the ``repro`` library and its ``dds-repro`` command.

``python -m pip install .`` installs the ``repro`` package from ``src/``
and the ``dds-repro`` console script (``repro.cli:main``).  There is no
``pyproject.toml``, so legacy installs (``python setup.py develop``) keep
working on older pip and setuptools stacks that lack the ``wheel`` package.

Dependencies
------------
numpy, the one runtime dependency: it builds each decision network's arc
columns in bulk, rewrites the penalty capacities of its retune, routes the
start flow before each solve and sorts a flow network's arcs into its CSR
index.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

#: ``repro.__version__``, read from the source so that setup does not import numpy.
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="dds-repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    entry_points={"console_scripts": ["dds-repro = repro.cli:main"]},
)
