"""Byte-for-byte CLI output on fixed grids, against committed golden files.

The files under ``tests/golden/`` hold the output of the commands below as
the CLI printed them when they were frozen.  A refactor that keeps the
numbers keeps these bytes; any change to a value, a digit or a column
fails here, and so does a command that exits with another code.  Every
command runs in-process through ``cli.main``.  A few also run as a real
process, ``python -m projheat`` with stdout to a pipe, because that path
ends without interpreter teardown (``cli.run``): those cases show that no
byte of block-buffered output is lost and no exit code changes there.

To regenerate the files (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from projheat import cli

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


def test_selftest_golden_passes_the_benchmark_check(monkeypatch):
    # perfbench/checks.py reads the selftest workload's output; pin its verdict on the golden
    bench = pathlib.Path(__file__).parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # checks.py imports its siblings by bare name
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no cache in perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_checks", bench / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    assert checks.check_selftest((GOLDEN / "selftest.txt").read_text()) == []


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
