"""Setuptools entry point.

Kept as an explicit ``setup()`` call (rather than pure ``pyproject.toml``
metadata) so that fully-offline environments (no ``wheel`` package
available for PEP 660 editable builds) can still do::

    pip install -e . --no-build-isolation --no-use-pep517

``pyproject.toml`` carries the build-system pin and tool configuration
(ruff, pytest); the distribution metadata lives here.
"""

from pathlib import Path

from setuptools import find_packages, setup

_VERSION = {}
exec(
    (Path(__file__).parent / "src" / "repro" / "version.py").read_text(),
    _VERSION,
)

setup(
    name="lanns-repro",
    version=_VERSION["__version__"],
    description=(
        "Reproduction of LANNS: a web-scale approximate nearest neighbor "
        "lookup system (VLDB 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.22",
    ],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
