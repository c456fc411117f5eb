"""Byte-for-byte CLI output on fixed grids, against committed golden files.

The files under ``tests/golden/`` hold the output of the commands below as
the CLI printed them when they were frozen.  A refactor that keeps the
numbers keeps these bytes; any change to a value, a digit or a column
fails here.  The commands run in-process through ``cli.main``.

To regenerate the files (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import pathlib
import sys

import pytest

from projheat import cli

GOLDEN = pathlib.Path(__file__).with_name("golden")

SMALL_GRID = ["--t-grid", "0.05:1:4", "--d-grid", "0:1.5:5"]
POINT = ["--space", "hpn", "--n", "2", "--t", "0.5", "--d", "0.3"]

COMMANDS = {
    **{
        f"table_series_{space}_n{n}.csv": ["table", "--space", space, "--n", str(n),
                                           *SMALL_GRID, "--method", "series",
                                           "--format", "csv"]
        for space in ("cpn", "hpn") for n in (1, 2, 3)
    },
    "table_both_hpn_n2.json": ["table", "--space", "hpn", "--n", "2",
                               "--t-grid", "0.2:1:2", "--d-grid", "0:1.2:3",
                               "--method", "both", "--format", "json"],
    **{
        f"eval_{method}.{fmt}": ["eval", *POINT, "--method", method, "--format", fmt]
        for method in ("series", "integral", "both")
        for fmt in ("pretty", "csv", "json")
    },
    "compare_cpn_n2.csv": ["compare", "--space", "cpn", "--n", "2",
                           "--t-grid", "0.1:1:3", "--d-grid", "0:1.4:4", "--format", "csv"],
    # its rows need 32, 64 and 512 quadrature nodes
    "table_integral_cpn_n2.json": ["table", "--space", "cpn", "--n", "2",
                                   "--t-grid", "0.0002:0.02:3", "--d-grid", "0:1.56:9",
                                   "--tol", "1e-6", "--method", "integral", "--format", "json"],
    "selftest.txt": ["selftest"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert cli.main(COMMANDS[name] + ["--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        if cli.main(argv + ["--out", str(GOLDEN / name)]) != cli.EXIT_OK:
            sys.exit(f"{name}: command failed")
