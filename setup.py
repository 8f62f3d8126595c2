"""Setup shim for environments without the `wheel` package.

The project metadata lives in pyproject.toml; this file only enables legacy
editable installs (`pip install -e .`) on systems where PEP 660 editable
wheels cannot be built offline.
"""

from setuptools import setup

setup()
