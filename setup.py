"""Package metadata for the ``repro`` library.

The code lives under ``src/`` (``src/repro``).  This file is the only
packaging metadata; ``pip install -e .`` works with it in offline
environments whose setuptools/pip lack the PEP 660 editable-wheel path.
Without installing, put ``src`` on ``PYTHONPATH`` (as CI does).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
