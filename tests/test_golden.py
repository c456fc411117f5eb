"""Byte-for-byte CLI output on fixed grids, against committed golden files.

The files under ``tests/golden/`` hold the output of the commands below as
the CLI printed them when they were frozen.  A refactor that keeps the
numbers keeps these bytes; any change to a value, a digit or a column
fails here, and so does a command that exits with another code.  Every
command runs in-process through ``cli.main``.  A few also run as a real
process, ``python -m projheat`` with stdout to a pipe, because that path
ends without interpreter teardown (``cli.run``): those cases show that no
byte of block-buffered output is lost and no exit code changes there.
Every row of the series goldens is also held to its ``est_error`` against
an independent high-precision oracle.

To regenerate the files (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from projheat import cli, kernels

GOLDEN = pathlib.Path(__file__).with_name("golden")

SMALL_GRID = ["--t-grid", "0.05:1:4", "--d-grid", "0:1.5:5"]
POINT = ["--space", "hpn", "--n", "2", "--t", "0.5", "--d", "0.3"]

#: name of each golden file -> (argv, exit code)
COMMANDS = {
    **{
        f"table_series_{space}_n{n}.csv": (["table", "--space", space, "--n", str(n),
                                            *SMALL_GRID, "--method", "series",
                                            "--format", "csv"], cli.EXIT_OK)
        for space in ("cpn", "hpn") for n in (1, 2, 3)
    },
    **{
        f"table_point_{method}.{fmt}": (["table", *POINT, "--method", method,
                                         "--format", fmt], cli.EXIT_OK)
        for method in ("series", "integral")
        for fmt in ("csv", "json")
    },
    "compare_cpn_n2.csv": (["compare", "--space", "cpn", "--n", "2",
                            "--t-grid", "0.1:1:3", "--d-grid", "0:1.4:4", "--format", "csv"],
                           cli.EXIT_OK),
    # a tolerance below roundoff: 6 rows pass and 2 fail
    **{
        f"compare_fail_hpn_n1.{fmt}": (["compare", "--space", "hpn", "--n", "1",
                                        "--t-grid", "0.2:1:2", "--d-grid", "0:1.2:4",
                                        "--tol", "1e-16", "--format", fmt],
                                       cli.EXIT_VERIFY_FAILED)
        for fmt in ("csv", "json", "pretty")
    },
    # its rows need 32 and 128 quadrature nodes
    "table_integral_cpn_n2.json": (["table", "--space", "cpn", "--n", "2",
                                    "--t-grid", "0.0002:0.02:3", "--d-grid", "0:1.56:9",
                                    "--tol", "1e-6", "--method", "integral", "--format", "json"],
                                   cli.EXIT_OK),
    "selftest.txt": (["selftest"], cli.EXIT_OK),
    # every report's lhs, rhs, abs_err and rel_err in full: the suite's numbers bit for bit
    "selftest.json": (["selftest", "--json"], cli.EXIT_OK),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, tmp_path):
    argv, code = COMMANDS[name]
    out = tmp_path / name
    assert cli.main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


#: golden files also compared with the stdout of a real process
PROCESS_STDOUT = ("selftest.txt", "table_series_hpn_n3.csv", "compare_fail_hpn_n1.csv")


def _process(argv):
    # block-buffered stdout, as a pipe gives it by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "projheat", *argv], capture_output=True,
                          env=env)


@pytest.mark.parametrize("name", PROCESS_STDOUT)
def test_process_stdout_matches_golden(name):
    argv, code = COMMANDS[name]
    proc = _process(argv)
    assert (proc.returncode, proc.stderr) == (code, b"")
    assert proc.stdout == (GOLDEN / name).read_bytes()


def test_process_out_file_matches_golden(tmp_path):
    name = "table_integral_cpn_n2.json"
    argv, code = COMMANDS[name]
    out = tmp_path / name
    proc = _process(argv + ["--out", str(out)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, b"", b"")
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def _perfbench_module(name: str, monkeypatch):
    """``perfbench/<name>.py`` as a module, imported without writing bytecode into perfbench/."""
    bench = pathlib.Path(__file__).parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # checks.py imports its siblings by bare name
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", bench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_selftest_golden_passes_the_benchmark_check(monkeypatch):
    # perfbench/checks.py reads the selftest workload's output; pin its verdict on the golden
    checks = _perfbench_module("checks", monkeypatch)
    assert checks.check_selftest((GOLDEN / "selftest.txt").read_text()) == []


#: the series goldens, whose rows the oracle holds to their est_error
SERIES_GOLDENS = tuple(name for name in sorted(COMMANDS) if name.startswith("table_series_")
                       or name.startswith("table_point_series."))


@pytest.fixture(scope="module")
def series_golden_rows():
    """(file, k, n, t, d, value, est_error, oracle value) of every series golden row.

    The oracle is ``perfbench/oracle.heat_kernel``, an ``mpmath`` sum that
    shares no code with projheat.
    """
    with pytest.MonkeyPatch.context() as patch:
        oracle = _perfbench_module("oracle", patch)
    rows = []
    for name in SERIES_GOLDENS:
        text = (GOLDEN / name).read_text()
        records = ([json.loads(line) for line in text.splitlines()] if name.endswith(".json")
                   else list(csv.DictReader(io.StringIO(text))))
        for r in records:
            k, n, t, d = int(r["k"]), int(r["n"]), float(r["t"]), float(r["d"])
            rows.append((name, k, n, t, d, float(r["value"]), float(r["est_error"]),
                         oracle.heat_kernel(k, n, t, d)))
    return rows


def test_series_goldens_are_within_est_error_of_the_oracle(series_golden_rows):
    assert len(series_golden_rows) == 6 * 20 + 2
    assert [row for row in series_golden_rows if not abs(row[5] - row[7]) <= row[6]] == []


def test_series_goldens_miss_the_oracle_without_the_roundoff_floor(series_golden_rows,
                                                                   monkeypatch):
    # the tail bound alone, what est_error was before the floor; the goldens' tol is the CLI's
    monkeypatch.setattr(kernels, "UNIT_ROUNDOFF", 0.0)
    misses = []
    for name, k, n, t, d, value, _, exact in series_golden_rows:
        record = kernels.unified(n, k, t, d, 1e-10, "series")
        assert record.value == value
        if not abs(value - exact) <= record.est_error:
            misses.append(name)
    assert len(misses) == 18


def test_process_help_matches_in_process(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    assert cli.main(["--help"]) == cli.EXIT_OK
    proc = _process(["--help"])
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, b"")
    assert proc.stdout == capsys.readouterr().out.encode()
    assert proc.stdout.startswith(b"usage: projheat")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, code) in COMMANDS.items():
        if cli.main(argv + ["--out", str(GOLDEN / name)]) != code:
            sys.exit(f"{name}: command exited other than {code}")
