"""The Python blocks of README's "Library use" section run as written.

A removed export or a changed signature then fails here instead of
leaving the documentation wrong.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_library_use_has_two_python_blocks():
    assert len(_library_blocks()) == 2


@pytest.mark.parametrize("index", [0, 1])
def test_library_use_block_runs(index):
    exec(compile(_library_blocks()[index], f"README.md, Library use block {index}", "exec"), {})
