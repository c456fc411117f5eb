"""README's examples stay true: the Python blocks of "Library use" run as
written, every ``projheat`` line of its ``sh`` blocks parses, the CLI
section names exactly the parser's commands, and the suite groups it names
exist.

A removed export, a changed signature, a removed flag or a removed
command then fails here instead of leaving the documentation wrong.
"""

import re
import shlex
from pathlib import Path

import pytest

from projheat import cli, geometry, kernels, verify

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1]
    return section.split("\n## ", 1)[0]


def _library_blocks() -> list:
    return re.findall(r"```python\n(.*?)```", _section("Library use"), re.DOTALL)


def test_library_use_has_one_python_block():
    assert len(_library_blocks()) == 1


@pytest.mark.parametrize("index", [0])
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


def test_cli_section_names_exactly_the_commands():
    # the commands of its command lines and of its "Flags of ..." sentences
    section = _section("CLI")
    lines = re.findall(r"^projheat (\w+)", section, re.MULTILINE)
    flags_of = re.findall(r"`(\w+)`", " ".join(re.findall(r"Flags of (.*?):", section)))
    [choices] = re.findall(r"\{(.*?)\}", cli.build_parser().format_usage())
    assert set(lines) | set(flags_of) == set(choices.split(","))


def _flags_paragraph(command: str) -> str:
    [paragraph] = [p for p in _section("CLI").split("\n\n")
                   if p.startswith(f"Flags of `{command}`")]
    return paragraph


def test_selftest_paragraph_names_only_groups():
    # the backticked snake_case names of the "Flags of `selftest`" paragraph
    named = set(re.findall(r"`([a-z0-9]+_[a-z0-9_]+)`", _flags_paragraph("selftest")))
    assert named and named <= set(verify.group_names())


def test_stated_domain_is_the_checked_one():
    # the time floor, in the flags paragraph and in "Library use", and the index caps
    flags = _flags_paragraph("table")
    floors = re.findall(r"below `([^`]+)`", flags + _section("Library use"))
    assert len(floors) == 3 and {float(f) for f in floors} == {kernels.MIN_TIME}
    caps = re.search(r"`--n` is at most (\d+) on `cpn` and (\d+) on\s+`hpn`", flags).groups()
    assert [int(n) for n in caps] == [(geometry.MAX_OFFSET + 1) // k - 1 for k in (1, 2)]
