"""Packaging for ``repro``: the FedWCM reproduction and its federated runtime.

All metadata lives here.  Editable install without network access::

    pip install -e . --no-use-pep517 --no-deps --no-build-isolation

pip refuses ``--no-use-pep517`` when the ``wheel`` package is missing; there,
``python setup.py develop --no-deps`` gives the same editable install.

The version is read from ``src/repro/__init__.py`` without importing the
package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (HERE / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "FedWCM: momentum-based federated learning in long-tailed scenarios, "
        "with an event-driven federated runtime"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
