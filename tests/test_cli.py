"""Integration tests for the command-line interface (exit codes, formats)."""

import ast
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest

import projheat
from projheat import cli, kernels, thetapsi, verify
from projheat.errors import DomainError, TruncationCapError

CMD = [sys.executable, "-m", "projheat"]


def run(*args, **kwargs):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, **kwargs)


def csv_value(stdout):
    """The value column of a one-point table."""
    header, row = stdout.splitlines()
    return float(dict(zip(header.split(","), row.split(",")))["value"])


class TestEval:
    """Evaluation at one point: ``table --t T --d D``."""

    def test_hpn_stationary(self):
        res = run("table", "--space", "hpn", "--n", "1", "--t", "50", "--d", "0.3")
        assert res.returncode == 0
        assert abs(csv_value(res.stdout) - 6.0 / math.pi**2) <= 1e-10

    def test_cpn_stationary(self):
        res = run("table", "--space", "cpn", "--n", "1", "--t", "50", "--d", "0.1")
        assert res.returncode == 0
        assert abs(csv_value(res.stdout) - 1.0 / math.pi) <= 1e-10

    def test_negative_time_is_usage_error(self):
        res = run("table", "--t", "-1", "--d", "0.3")
        assert res.returncode == 2
        assert "t" in res.stderr and "range" in res.stderr

    def test_distance_out_of_range(self):
        res = run("table", "--t", "0.5", "--d", "1.6")
        assert res.returncode == 2

    def test_unreachable_tolerance_is_exit_3(self):
        # roundoff keeps successive quadrature estimates from ever agreeing
        # to 1e-30 at these parameters, so the node cap is reached
        res = run("table", "--space", "hpn", "--n", "2", "--t", "0.001", "--d", "1.0",
                  "--method", "integral", "--tol", "1e-30")
        assert res.returncode == 3
        assert "convergence" in res.stderr.lower()

    @pytest.mark.parametrize("command", ["table"])
    @pytest.mark.parametrize("method", ["series", "integral"])
    @pytest.mark.parametrize("tol", ["0", "-1", "inf"])
    def test_nonpositive_tolerance_is_usage_error(self, command, method, tol):
        argv = [command, "--t", "0.5", "--d", "0.3", "--method", method, "--tol", tol]
        assert cli.main(argv) == cli.EXIT_USAGE

    def test_json_format(self):
        res = run("table", "--t", "0.5", "--d", "0.3", "--format", "json")
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert rec["method"] == "series" and rec["value"] > 0


class TestTable:
    def test_grid_cardinality_and_header(self):
        res = run("table", "--space", "cpn", "--t-grid", "0.2:0.5:2",
                  "--d-grid", "0:0.8:2", "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "k,n,t,d,method,value,est_error,terms_or_nodes"
        assert len(lines) == 1 + 4

    def test_deterministic_output(self):
        args = ("table", "--space", "hpn", "--t-grid", "0.2:1:3",
                "--d-grid", "0:1.2:4", "--format", "csv")
        first = run(*args)
        second = run(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_row_order_is_t_major(self):
        res = run("table", "--space", "cpn", "--t-grid", "0.2:0.5:2",
                  "--d-grid", "0:0.8:2", "--format", "csv")
        rows = [line.split(",") for line in res.stdout.strip().splitlines()[1:]]
        ts = [float(r[2]) for r in rows]
        ds = [float(r[3]) for r in rows]
        assert ts == sorted(ts)
        assert ds[0] < ds[1] and ds[2] < ds[3]

    def test_out_file(self, tmp_path):
        target = tmp_path / "table.csv"
        res = run("table", "--t", "0.5", "--d", "0.4", "--format", "csv",
                  "--out", str(target))
        assert res.returncode == 0
        assert target.read_text().startswith("k,n,t,d,method")

    def test_series_csv_prints_each_entry_of_the_record(self, capsys, monkeypatch):
        # a series record whose tail bound and term count vary along a row:
        # every line prints its own entries, not those of the row's first distance
        unified = kernels.unified

        def varying(n, k, t, d, tol, method):
            record = unified(n, k, t, d, tol, method)
            steps = np.arange(len(d))
            return kernels.KernelValue(record.value, record.terms_or_nodes + steps,
                                       record.est_error * (1.0 + steps))

        monkeypatch.setattr(kernels, "unified", varying)
        argv = ["table", "--space", "hpn", "--n", "1", "--t-grid", "0.2:1:2",
                "--d-grid", "0:1.2:3", "--method", "series", "--format", "csv"]
        assert cli.main(argv) == cli.EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        want = varying(1, 2, [0.2, 1.0], [0.0, 0.6, 1.2], 1e-10, "series")
        assert [float(r[5]) for r in rows] == want.value.ravel().tolist()
        assert [float(r[6]) for r in rows] == want.est_error.ravel().tolist()
        assert [int(r[7]) for r in rows] == want.terms_or_nodes.ravel().tolist()
        assert len(set(r[7] for r in rows[:3])) == 3


class TestBrokenPipe:
    def test_closed_reader_exits_141_quietly(self):
        # the reader takes the header and goes away, as ``| head -1`` does
        proc = subprocess.Popen(CMD + ["table", "--t-grid", "0.2:1:30", "--d-grid", "0:1.2:50",
                                       "--format", "csv"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"k,n,t,d,method,value,est_error,terms_or_nodes\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_help_to_closed_reader_exits_141_quietly(self):
        # buffered --help meets the closed pipe on the last flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        try:
            res = subprocess.run(CMD + ["--help"], stdout=write_end, stderr=subprocess.PIPE,
                                 env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (res.returncode, res.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


class TestCompare:
    def test_default_grid_passes(self):
        res = run("compare", "--space", "hpn", "--n", "1", "--t-grid", "0.2:1:3",
                  "--d-grid", "0:1.2:4", "--tol", "1e-8")
        assert res.returncode == 0
        assert "FAIL" not in res.stdout

    def test_sub_roundoff_tolerance_fails(self):
        res = run("compare", "--space", "hpn", "--n", "1", "--t-grid", "0.2:1:2",
                  "--d-grid", "0:1.2:3", "--tol", "1e-16")
        assert res.returncode == 1
        assert "FAIL" in res.stdout

    def test_json_reports(self):
        res = run("compare", "--space", "cpn", "--n", "2", "--t", "0.5",
                  "--d-grid", "0:1:3", "--format", "json")
        assert res.returncode == 0
        for line in res.stdout.strip().splitlines():
            rec = json.loads(line)
            assert rec["identity"] == "representation_equivalence"
            assert rec["passed"]

    def test_values_are_the_tables(self, capsys):
        # at the default --tol, compare's two value columns are table's value column
        # of each method, bit for bit
        grid = ["--space", "hpn", "--n", "2", "--t-grid", "0.2:1:3", "--d-grid", "0:1.4:4",
                "--format", "csv"]
        assert cli.main(["compare", *grid]) == cli.EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        for column, method in ((4, "series"), (5, "integral")):
            assert cli.main(["table", *grid, "--method", method]) == cli.EXIT_OK
            table = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
            assert [r[:4] + [r[column]] for r in rows] == [r[:4] + [r[5]] for r in table]

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_nonfinite_tolerance_is_usage_error(self, tol, capsys):
        # an infinite tolerance would pass every row whatever the two methods give
        assert cli.main(["compare", "--t", "0.5", "--d", "0.3", "--tol", tol]) == cli.EXIT_USAGE
        assert "tolerance must be positive and finite" in capsys.readouterr().err

    def test_largest_quaternionic_space(self):
        res = run("compare", "--space", "hpn", "--n", "3", "--t-grid", "0.1:0.5:2",
                  "--d-grid", "0:1.4:4", "--tol", "1e-8")
        assert res.returncode == 0


class TestErrorLines:
    """Exact stderr line and exit code, in-process."""

    def test_bad_index_is_usage_error(self, capsys):
        assert cli.main(["table", "--n", "0", "--t", "0.5", "--d", "0.3"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "projheat: error: projective index must be >= 1, got 0\n"

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_nonfinite_time_is_usage_error(self, capsys, t):
        assert cli.main(["table", "--t", t, "--d", "0.3"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("projheat: error: diffusion time out of range: "
                                f"must be finite and >= 0.0001, got {t}\n")

    @pytest.mark.parametrize("flags", ["--t 5e-5", "--t inf", "--d 1.6", "--n 0",
                                       "--space hpn --n 86", "--tol 0", "--tol nan"])
    def test_refused_value_is_the_kernels_error(self, capsys, monkeypatch, tmp_path, flags):
        # the CLI checks none of these: its one line is what unified's check raised
        check, raised = kernels._check_args, []

        def spy(*args):
            try:
                return check(*args)
            except DomainError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(kernels, "_check_args", spy)
        target = tmp_path / "out.csv"
        argv = ["table", "--t", "0.5", "--d", "0.3", *flags.split(), "--out", str(target)]
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert len(raised) == 1 and captured.out == ""
        assert captured.err == f"projheat: error: {raised[0]}\n"
        assert not target.exists()

    def test_malformed_grid_is_reported_before_a_bad_index(self, capsys):
        # the grids are parsed before unified checks the index
        assert cli.main(["table", "--n", "0", "--t-grid", "1:2"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "projheat: error: --t-grid expects a:b:steps, got '1:2'\n"

    @pytest.mark.parametrize("argv,bad", [
        (["table", "--t", "0.5", "--d", "1.6"], "1.6"),
        (["table", "--t", "0.5", "--d", "-0.1", "--method", "integral"], "-0.1"),
        # the first distance of the grid past pi/2 is named
        (["table", "--t-grid", "0.2:1:3", "--d-grid", "1:2:5", "--format", "csv"], "1.75"),
    ])
    def test_distance_out_of_range_is_usage_error(self, capsys, tmp_path, argv, bad):
        target = tmp_path / "out.txt"
        assert cli.main(argv + ["--out", str(target)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"projheat: error: distance must lie in [0, pi/2), got {bad}\n"
        # every row is computed before --out is opened
        assert not target.exists()

    @pytest.mark.parametrize("method", ["series", "integral"])
    def test_index_whose_weights_overflow_is_usage_error(self, capsys, method):
        argv = ["table", "--n", "200", "--t", "0.5", "--d", "0.3", "--method", method]
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("projheat: error: projective index must be <= 85 for k=2, "
                                "got 200: larger n overflows floating point\n")

    @pytest.mark.parametrize("argv,line", [
        (["--space", "cpn", "--n", "171", "--t", "5"],
         "spectral series weights overflow floating point at k=1, n=171, t=5.0"),
        (["--space", "hpn", "--n", "85", "--method", "integral", "--t", "5"],
         "ladder series weights overflow floating point at j=171, t=5.0"),
        # small t: the first weights come before any tail bound is tested
        (["--space", "cpn", "--n", "171", "--t", "0.0001"],
         "spectral series weights overflow floating point at k=1, n=171, t=0.0001"),
        (["--space", "hpn", "--n", "85", "--method", "integral", "--t", "0.0001"],
         "ladder series weights overflow floating point at j=171, t=0.0001"),
        # 2^150 150! is finite, the first weight is not
        (["--space", "cpn", "--n", "151", "--method", "integral", "--t", "0.5"],
         "ladder series weights overflow floating point at j=151, t=0.5"),
    ])
    def test_overflowing_weights_are_exit_3(self, argv, line):
        # a fresh process that turns warnings into errors: the whole stderr,
        # so a RuntimeWarning would show
        res = subprocess.run([sys.executable, "-W", "error", "-m", "projheat",
                              "table", "--d", "0.3", *argv], capture_output=True, text=True)
        assert res.returncode == cli.EXIT_NO_CONVERGENCE
        assert res.stdout == ""
        assert res.stderr == f"projheat: no convergence: {line}\n"

    def test_no_convergence_is_exit_3(self, capsys):
        argv = ["compare", "--space", "hpn", "--n", "3", "--t", "0.01", "--d", "0"]
        assert cli.main(argv) == cli.EXIT_NO_CONVERGENCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("projheat: no convergence: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv,line", [
        # only t = 0.001 fails, in the integral
        ("compare --space hpn --n 3 --t-grid 0.001:0.05:5 --d 0",
         "no convergence to tol=2.416234582221433e-06 within 4096 nodes"),
        # both methods fail at every t: the series at the first t
        ("compare --space cpn --n 171 --t-grid 0.0001:5:4 --d 0.3",
         "spectral series weights overflow floating point at k=1, n=171, t=0.0001"),
        # the series alone fails the same way, at the first t
        ("table --space cpn --n 171 --t-grid 0.0001:5:4 --d 0.3 --method series",
         "spectral series weights overflow floating point at k=1, n=171, t=0.0001"),
        # the first t fails, at the first distance that fails there
        ("table --space hpn --n 8 --t-grid 0.5:5:3 --d-grid 0:1.2:3 --method integral",
         "no convergence to tol=30.42376086438599 within 4096 nodes"),
        ("compare --space cpn --n 15 --t-grid 0.1:0.5:3 --d-grid 0:1.5:4",
         "no convergence to tol=36.87719765726545 within 4096 nodes"),
    ])
    def test_failing_grid_names_the_first_failing_row(self, capsys, argv, line):
        assert cli.main(argv.split()) == cli.EXIT_NO_CONVERGENCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"projheat: no convergence: {line}\n"

    def test_integral_at_an_earlier_t_fails_before_the_series(self, capsys, monkeypatch):
        # the series grid fails first, at the last t, but the integral fails at the first
        series_values = kernels.series_values

        def failing_last(k, n, t, d, tol):
            if t == 0.05:
                raise TruncationCapError("series fails at the last t")
            return series_values(k, n, t, d, tol)

        monkeypatch.setattr(kernels, "series_values", failing_last)
        argv = "compare --space hpn --n 3 --t-grid 0.001:0.05:5 --d 0".split()
        assert cli.main(argv) == cli.EXIT_NO_CONVERGENCE
        assert capsys.readouterr().err == ("projheat: no convergence: no convergence to "
                                           "tol=2.416234582221433e-06 within 4096 nodes\n")

    def test_error_no_row_meets_alone_is_not_raised(self, capsys, monkeypatch):
        # a grid call may fail where no row fails alone; the rows then give the output
        argv = ["compare"]
        assert cli.main(argv) == cli.EXIT_OK
        want = capsys.readouterr()
        call = thetapsi.PsiSeries.__call__

        def single_row_only(self, rows, u):
            if np.size(rows) > 1:
                raise TruncationCapError("a grid call no row makes alone")
            return call(self, rows, u)

        monkeypatch.setattr(thetapsi.PsiSeries, "__call__", single_row_only)
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr() == want

    @pytest.mark.parametrize("command", ["table"])
    def test_method_both_is_usage_error(self, capsys, command):
        # compare is the one command that evaluates both methods
        argv = [command, "--t", "0.5", "--d", "0.3", "--method", "both"]
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: projheat {command} ")
        assert "argument --method: invalid choice: 'both'" in captured.err

    @pytest.mark.parametrize("argv,usage,error", [
        # table is the one command that evaluates one method, at a point or over a grid
        (["eval", "--t", "0.5", "--d", "0.3"], "usage: projheat [-h] {table,compare,selftest} ",
         "argument command: invalid choice: 'eval'"),
        # and csv is its one text format
        (["table", "--t", "0.5", "--d", "0.3", "--format", "pretty"],
         "usage: projheat table ", "argument --format: invalid choice: 'pretty'"),
    ], ids=["eval", "table-pretty"])
    def test_removed_spelling_is_usage_error(self, capsys, argv, usage, error):
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(usage)
        assert error in captured.err

    @pytest.mark.parametrize("argv", [
        ["table"],
        ["table", "--t", "0.5", "--d", "0.3"],
        ["compare", "--t", "0.5", "--d", "0.3"],
    ])
    @pytest.mark.parametrize("target,reason", [
        ("", "Is a directory"),  # the directory itself
        ("missing/x", "No such file or directory"),
    ])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv, target, reason):
        out = tmp_path / target
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"projheat: error: cannot write --out {out}: {reason}\n"

    def test_failed_compare_writes_no_out_file(self, tmp_path):
        # the whole grid is evaluated before --out is opened
        target = tmp_path / "compare.csv"
        argv = ["compare", "--space", "hpn", "--n", "3", "--t", "0.01", "--d", "0",
                "--format", "csv", "--out", str(target)]
        assert cli.main(argv) == cli.EXIT_NO_CONVERGENCE
        assert not target.exists()


class TestSelftest:
    def test_only_lemma(self):
        res = run("selftest", "--only", "lemma")
        assert res.returncode == 0
        body = res.stdout.strip().splitlines()
        assert all(line.startswith("PASS") for line in body[:-1])
        assert "gegenbauer_ladder_to_jacobi" in res.stdout

    def test_json_reports(self):
        res = run("selftest", "--only", "theta2", "--json")
        assert res.returncode == 0
        for line in res.stdout.strip().splitlines():
            rec = json.loads(line)
            assert rec["passed"] is True

    def test_json_reports_are_plain_json(self, capsys):
        # the psi truncation reports compare numpy scalars
        assert cli.main(["selftest", "--only", "theta_truncation", "--json"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["passed"] is True for line in lines)

    def test_failed_report_is_exit_1(self, monkeypatch, capsys):
        [failing] = verify._row_reports("x", [{}], [1.0], [2.0], 1e-10)
        monkeypatch.setitem(verify._GROUPS, "theta2", lambda: [failing])
        assert cli.main(["selftest", "--only", "theta2"]) == cli.EXIT_VERIFY_FAILED
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("FAIL x [] ")
        assert lines[1:] == ["# 0/1 checks passed"]

    @pytest.mark.parametrize("knob", [["--tol", "0"], ["--k", "1"]], ids=["tol", "k"])
    def test_removed_knob_is_usage_error(self, knob):
        # every check's tolerance and field set is fixed
        assert cli.main(["selftest", *knob]) == cli.EXIT_USAGE

    def test_unknown_group_is_usage_error(self, capsys, tmp_path):
        assert cli.main(["selftest", "--only", "nonexistent_group"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "projheat: error: no checks match --only 'nonexistent_group'\n"
        # the usage error comes before --out is opened
        target = tmp_path / "selftest.txt"
        argv = ["selftest", "--only", "nonexistent_group", "--out", str(target)]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert not target.exists()

    def test_bad_flag_is_usage_error(self):
        res = run("table", "--space", "qpn", "--t", "0.5", "--d", "0.1")
        assert res.returncode == 2

    def test_help_names_the_prefix(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        assert cli.main(["selftest", "--help"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "[--only PREFIX]" in out and "--only PREFIX " in out
        assert "ONLY" not in out

    def test_suite_leaves_numpy_random_unimported(self):
        # a fresh process: the suite draws its samples from Python's random
        code = ("import sys; from projheat import cli; assert cli.main(['selftest']) == 0; "
                "sys.stdout.flush(); print('numpy.random' in sys.modules, file=sys.stderr)")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stderr == "False\n"

    def test_selftest_loads_no_dataclasses_or_multiprocessing(self):
        # a fresh process, its forked worker included: the records are NamedTuples,
        # and the worker is started with os.fork and reports over a pipe
        res = subprocess.run([sys.executable, "-X", "importtime", *CMD[1:], "selftest"],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        loaded = {line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
                  if line.startswith("import time:")}
        assert "projheat.verify" in loaded
        assert not loaded & {"dataclasses", "multiprocessing", "concurrent.futures"}

    def test_grid_commands_and_suite_leave_numpy_ma_unimported(self):
        # a fresh process: numpy imports numpy.ma lazily, e.g. on a first np.unique
        code = ("import sys; from projheat import cli; "
                "assert [cli.main(argv) for argv in (['table'], "
                "['table', '--method', 'integral'], ['compare'], ['selftest'])] == [0, 0, 0, 0]; "
                "sys.stdout.flush(); print('numpy.ma' in sys.modules, file=sys.stderr)")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stderr == "False\n"


class TestImports:
    """The package exports its entry point; only ``compare`` and ``selftest`` load ``verify``."""

    def test_package_exports_the_entry_point_and_the_errors(self):
        public = {name for name, value in vars(projheat).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert public == {"unified", "KernelValue", "DomainError", "ProjheatError",
                          "QuadratureConvergenceError", "TruncationCapError"}

    def test_package_import_leaves_verify_and_json_unloaded(self):
        # a fresh process: this one has imported both
        code = ("import sys, projheat; "
                "print([m for m in ('projheat.verify', 'json') if m in sys.modules])")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"

    @pytest.mark.parametrize("argv", [["table", "--method", "integral"],
                                      ["table", "--t", "0.5", "--d", "0.3"]])
    def test_table_and_eval_leave_verify_unloaded(self, argv):
        code = (f"import sys; from projheat import cli; assert cli.main({argv!r}) == 0; "
                "sys.stdout.flush(); print('projheat.verify' in sys.modules, file=sys.stderr)")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stderr == "False\n"


class TestProcessEntry:
    """``python -m projheat`` and the ``projheat`` script end through ``cli.run``.

    ``run`` ends the process it runs in, so these tests only read where it
    is named and start it in child processes.
    """

    def test_script_and_module_name_one_function(self):
        tomllib = pytest.importorskip("tomllib")
        root = pathlib.Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as f:
            script = tomllib.load(f)["project"]["scripts"]["projheat"]
        module, _, name = script.partition(":")
        script_entry = getattr(importlib.import_module(module), name)

        tree = ast.parse((root / "src" / "projheat" / "__main__.py").read_text())
        imported = {alias.asname or alias.name: (node.module, alias.name)
                    for node in tree.body if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        [call] = [node.value for node in tree.body if isinstance(node, ast.Expr)]
        assert call.args == [] and call.keywords == []
        module, name = imported[call.func.id]
        module_entry = getattr(importlib.import_module(f"projheat.{module}"), name)

        assert script_entry is module_entry is cli.run

    def test_usage_error_matches_in_process(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        argv = ["table", "--space", "qpn", "--t", "0.5", "--d", "0.1"]
        code = cli.main(argv)
        captured = capsys.readouterr()
        res = run(*argv)
        assert res.returncode == code == cli.EXIT_USAGE
        assert (res.stdout, res.stderr) == (captured.out, captured.err)
        assert res.stderr.startswith("usage: projheat table")
