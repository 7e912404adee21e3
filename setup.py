"""Legacy setup shim.

The reproduction environment has no network access and no ``wheel``
package, so PEP 660 editable installs (which build a wheel) fail.  With a
``setup.py`` present and no ``[build-system]`` table in ``pyproject.toml``,
``pip install -e .`` falls back to the classic ``setup.py develop`` code
path, which works offline.
"""

from setuptools import setup

setup()
