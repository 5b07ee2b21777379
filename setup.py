"""Setuptools shim.

PEP 517 editable installs need the ``wheel`` package; where it is
missing (e.g. offline), ``python setup.py develop`` installs the
checkout in development mode through this shim.  All metadata lives in
``pyproject.toml``.
"""

from setuptools import setup

setup()
