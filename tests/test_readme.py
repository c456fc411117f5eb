"""README's examples stay true: the Python blocks of "Library use" run as
written, and every ``projheat`` line of its ``sh`` blocks parses.

A removed export, a changed signature or a removed flag then fails here
instead of leaving the documentation wrong.
"""

import re
import shlex
from pathlib import Path

import pytest

from projheat import cli

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


def _cli_lines() -> list:
    """The ``projheat`` command lines of README's ``sh`` blocks, continuations joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    commands = "\n".join(blocks).replace("\\\n", " ")
    return [" ".join(line.split()) for line in commands.splitlines()
            if line.startswith("projheat ")]


def test_readme_names_cli_lines():
    assert len(_cli_lines()) >= 7


@pytest.mark.parametrize("line", _cli_lines())
def test_cli_line_parses(line):
    # parsed, never run: a flag the parser lacks exits 2 here
    try:
        cli.build_parser().parse_args(shlex.split(line)[1:])
    except SystemExit as exc:
        pytest.fail(f"README line does not parse (exit {exc.code}): {line}")
