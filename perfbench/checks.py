"""Correctness checks on the output of one projheat command.

Each checker returns a list of problems, empty when the output is right.
The property checks need no reference: a table holds exactly the
requested grid in t-major, d-minor order with every value positive; every
``compare`` row reads ``pass``; ``selftest`` passes every report and
resolves the source's superscript question to ``2n-2``.  The oracle check
compares sampled rows with the independent mpmath series in ``oracle``.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re

from oracle import heat_kernel
from workloads import Command

TABLE_COLUMNS = ("k", "n", "t", "d", "method", "value", "est_error", "terms_or_nodes")
COMPARE_COLUMNS = ("k", "n", "t", "d", "value_series", "value_integral", "abs_err",
                   "rel_err", "status")
VALUE_COLUMNS = {"table": ("value",), "compare": ("value_series", "value_integral")}

#: relative slack of the oracle check on top of the command's own --tol
ORACLE_REL = 1e-8

#: the reading of the integral-representation superscript the paper's identity needs
RESOLUTION = "2n-2"

_SUMMARY = re.compile(r"^# (\d+)/(\d+) checks passed$")
_RESOLUTION = re.compile(r"^PASS jacobi_sqrt_integral_rep_resolution \[passing_convention=(\S+?),")


def parse_rows(command: Command, text: str):
    """CSV rows of a grid command as dicts, or a problem string."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    expected = TABLE_COLUMNS if command.kind == "table" else COMPARE_COLUMNS
    if header is None or tuple(header) != expected:
        return f"header {header} is not {list(expected)}"
    rows = []
    for line_no, fields in enumerate(reader, start=2):
        if len(fields) != len(header):
            return f"line {line_no} has {len(fields)} fields, not {len(header)}"
        rows.append(dict(zip(header, fields)))
    return rows


def check_grid(command: Command, rows: list) -> list:
    """Row count, order, space and positivity of a table or compare output."""
    ts, ds = command.grid()
    if len(rows) != len(ts) * len(ds):
        return [f"{len(rows)} rows for a {len(ts)} x {len(ds)} grid"]
    problems = []
    for i, row in enumerate(rows):
        t, d = ts[i // len(ds)], ds[i % len(ds)]
        try:
            where = (int(row["k"]), int(row["n"]), float(row["t"]), float(row["d"]))
            values = [float(row[c]) for c in VALUE_COLUMNS[command.kind]]
        except ValueError as exc:
            problems.append(f"row {i}: {exc}")
            continue
        if where[:2] != (command.k, command.n):
            problems.append(f"row {i}: space k={where[0]} n={where[1]}")
        if not (math.isclose(where[2], t, rel_tol=1e-12)
                and math.isclose(where[3], d, rel_tol=1e-12, abs_tol=1e-15)):
            problems.append(f"row {i}: (t, d) = {where[2:]} where the grid has ({t}, {d})")
        if not all(math.isfinite(v) and v > 0 for v in values):
            problems.append(f"row {i}: kernel value {values} is not positive")
        if command.kind == "compare" and row["status"] != "pass":
            problems.append(f"row {i}: status {row['status']!r}")
        if len(problems) >= 5:
            break
    return problems


def oracle_sample(command: Command, rng: random.Random, size: int) -> list:
    """Row indices to check against the oracle: the hardest corner plus a seeded draw.

    The corner is the smallest t at the largest d, where the series cancels
    most; the rest are drawn without replacement from the whole grid.
    """
    nt, nd = command.t_grid[2], command.d_grid[2]
    corner = nd - 1
    rest = rng.sample(range(nt * nd), min(size, nt * nd))
    return sorted({corner, *rest})


def check_oracle(command: Command, rows: list, sample: list) -> list:
    """Compare the value columns of the sampled rows with the mpmath series.

    A value passes when |value - ref| <= tol + ORACLE_REL * |ref|, with tol
    the command's --tol.
    """
    problems = []
    for i in sample:
        row = rows[i]
        t, d = float(row["t"]), float(row["d"])
        ref = heat_kernel(command.k, command.n, t, d)
        for column in VALUE_COLUMNS[command.kind]:
            value = float(row[column])
            if not abs(value - ref) <= command.tol + ORACLE_REL * abs(ref):
                problems.append(f"row {i} (t={t}, d={d}): {column}={value!r}, oracle {ref!r}")
    return problems


def check_selftest(text: str) -> list:
    """Every report passes, the count adds up and the resolution names 2n-2."""
    lines = text.splitlines()
    passed = sum(1 for line in lines if line.startswith("PASS "))
    problems = [f"line {i + 1}: {line[:120]!r}" for i, line in enumerate(lines)
                if not line.startswith(("PASS ", "# "))][:5]
    summary = [m for m in map(_SUMMARY.match, lines) if m]
    if len(summary) != 1:
        problems.append("no single '# X/Y checks passed' summary line")
    elif not int(summary[0][1]) == int(summary[0][2]) == passed > 0:
        problems.append(f"summary {summary[0][0]!r} but {passed} PASS lines")
    resolutions = [m[1] for m in map(_RESOLUTION.match, lines) if m]
    if resolutions != [RESOLUTION]:
        problems.append(f"superscript resolution {resolutions}, expected [{RESOLUTION!r}]")
    return problems


def check_output(command: Command, text: str, sample_rng, sample_size: int):
    """All checks of one command's standard output; the list of problems."""
    if command.kind == "selftest":
        return check_selftest(text)
    rows = parse_rows(command, text)
    if isinstance(rows, str):
        return [rows]
    problems = check_grid(command, rows)
    if not problems:
        problems = check_oracle(command, rows, oracle_sample(command, sample_rng, sample_size))
    return problems
