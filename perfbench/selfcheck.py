"""Tests of the benchmark itself: its checkers, its oracle and a tiny run of each workload.

    python3 -m pytest -q perfbench/selfcheck.py

The file name keeps these tests out of the project's own test run; they
start real projheat processes, about 20 s in all.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import subprocess
import sys
import tempfile

import pytest

import checks
import run
from oracle import heat_kernel
from workloads import WORKLOADS, Command, make_commands

TINY = (3, 4)


def _output(command: Command) -> str:
    child = run.run_child(["-m", "projheat", *command.argv()])
    assert child.returncode == 0, child.stderr
    return child.stdout


@pytest.fixture(scope="module")
def table():
    command = make_commands("series_grid", 7, shape=TINY)[3]
    return command, _output(command)


@pytest.fixture(scope="module")
def compare():
    command = make_commands("compare_grid", 7, shape=TINY)[4]
    return command, _output(command)


@pytest.fixture(scope="module")
def selftest():
    return _output(Command("selftest"))


def _problems(command, text):
    return checks.check_output(command, text, random.Random(0), sample_size=10**6)


def _edit_field(text, row, column, edit):
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    fields = lines[row + 1].rstrip("\n").split(",")
    j = header.index(column)
    fields[j] = edit(fields[j])
    lines[row + 1] = ",".join(fields) + "\n"
    return "".join(lines)


def _scaled(factor):
    return lambda field: repr(float(field) * factor)


def test_good_outputs_pass(table, compare, selftest):
    assert _problems(*table) == []
    assert _problems(*compare) == []
    assert checks.check_selftest(selftest) == []


def test_table_value_off_by_1e6_relative_is_rejected(table):
    command, text = table
    for row in (0, 5, 11):
        assert _problems(command, _edit_field(text, row, "value", _scaled(1 + 1e-6)))


@pytest.mark.parametrize("column", ["value_series", "value_integral"])
def test_compare_value_off_by_1e6_relative_is_rejected(compare, column):
    command, text = compare
    assert _problems(command, _edit_field(text, 6, column, _scaled(1 - 1e-6)))


def test_dropped_row_is_rejected(table, compare):
    for command, text in (table, compare):
        lines = text.splitlines(keepends=True)
        assert _problems(command, "".join(lines[:3] + lines[4:]))
        assert _problems(command, "".join(lines[:-1]))


def test_swapped_rows_are_rejected(table):
    command, text = table
    lines = text.splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    assert _problems(command, "".join(lines))


def test_negative_value_is_rejected(table, compare):
    assert _problems(table[0], _edit_field(table[1], 2, "value", _scaled(-1.0)))
    assert _problems(compare[0], _edit_field(compare[1], 2, "value_integral", _scaled(-1.0)))


def test_fail_status_is_rejected(compare):
    command, text = compare
    assert _problems(command, _edit_field(text, 1, "status", lambda _: "fail"))


def test_selftest_fail_line_is_rejected(selftest):
    lines = selftest.splitlines(keepends=True)
    lines[3] = "FAIL" + lines[3][len("PASS"):]
    assert checks.check_selftest("".join(lines))


def test_selftest_dropped_report_is_rejected(selftest):
    lines = selftest.splitlines(keepends=True)
    assert checks.check_selftest("".join(lines[:2] + lines[3:]))


def test_resolution_2n_minus_1_is_rejected(selftest):
    corrupted = selftest.replace("passing_convention=2n-2,rejected=['2n-1']",
                                 "passing_convention=2n-1,rejected=['2n-2']")
    assert corrupted != selftest
    assert checks.check_selftest(corrupted)


@pytest.mark.parametrize("k,n", [(1, 1), (1, 3), (2, 2)])
def test_oracle_reaches_the_stationary_limit(k, n):
    c = k * (n + 1) - 1
    stationary = math.factorial(c) / (math.factorial(k - 1) * math.pi ** (k * n))
    assert heat_kernel(k, n, 40.0, 0.7) == pytest.approx(stationary, rel=1e-15)


def test_oracle_is_stable_in_its_precision(monkeypatch):
    import oracle

    base = heat_kernel(2, 3, 0.05, 1.5)
    monkeypatch.setattr(oracle, "MARGIN_DIGITS", 60)
    assert heat_kernel(2, 3, 0.05, 1.5) == base


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_each_workload(workload, trace):
    commands = make_commands(workload, 3, shape=TINY)
    tally = run.Tally()
    passes = run.measure(commands, 0, trace, 3, tally)
    assert (tally.attempted, tally.failed, tally.problems) == (len(commands), 0, [])
    if trace:
        names = ["cli.main.calls", "kernels.series_values.points", "traced.pass_s"]
        values = run.per_layer(names, passes, {}, {})
        assert values["cli.main.calls"] == len(commands)
        assert values["kernels.series_values.points"] > 0
    else:
        values = run.end_to_end(0.25, passes)
        assert all(v > 0 for v in values.values())


def test_refuses_to_run_without_a_source_tree():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "series_grid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
