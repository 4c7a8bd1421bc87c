"""Setup shim so that ``pip install -e .`` works.

There is no ``pyproject.toml`` and no metadata here: ``python setup.py
--name --version`` prints ``UNKNOWN 0.0.0``.  setuptools' automatic
discovery finds the one package, ``src/repro``, and declares no install
requirements.  Install the dependencies yourself, as
``.github/actions/setup-repro`` does: ``pip install numpy scipy networkx
pytest``.  Without installing anything, run from the repo root with
``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
