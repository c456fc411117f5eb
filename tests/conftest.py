"""Lets the CLI processes the tests start import projheat from this checkout.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's own
path; the child processes of test_cli.py and test_acceptance.py get it
through PYTHONPATH, so a bare ``pytest`` passes without an install.
"""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
