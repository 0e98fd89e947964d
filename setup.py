"""Legacy setup shim so editable installs work without the wheel package.

The release version is single-sourced from ``src/repro/__init__.py``
(``__version__``): three releases drifted apart across setup metadata,
the package attribute, and the changelog before this was parsed instead
of duplicated.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def _version() -> str:
    text = (Path(__file__).resolve().parent / "src" / "repro"
            / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__ = "([^"]+)"$', text, re.MULTILINE)
    if match is None:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro",
    version=_version(),
    description=(
        "Reproduction of 'Towards Coverage Closure: Using GoldMine Assertions "
        "for Generating Design Validation Stimulus' (Liu et al., DATE 2011)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],
    entry_points={
        "console_scripts": ["repro=repro.runner.cli:main"],
    },
)
