"""The benchmark's workloads: the projheat commands one pass runs.

An operation is one CLI command.  Every pass of a run repeats the same
commands, which are drawn from the workload seed:

- ``series_grid``: ``table --method series --format csv`` on a 50 x 200
  (t, d) grid, once for each of the six spaces (k in {1, 2}, n in {1, 2, 3}).
  Series assembly and CSV formatting; the integral path never runs.
- ``compare_grid``: ``compare --format csv`` on a 50 x 100 grid for each
  space.  Mostly the integral path (psi_sum under adaptive quadrature),
  the series for the rest.
- ``selftest``: one ``projheat selftest``.  Many scalar kernel calls, large
  quadrature rules and the brute-force oracles over orthopoly.

The seed jitters each grid's bounds inside t in [0.05, 2], d in [0, 1.5]
so that no single grid is tuned for; the point counts stay fixed so every
seed asks for the same amount of work.  Below t = 0.05 the program is
wrong today (negative series values, and exit 3 from ``compare`` on the
n = 3 spaces at t <= 0.01, d = 0), so the grids stay above it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

WORKLOADS = ("series_grid", "compare_grid", "selftest")

#: (t steps, d steps) of each grid command
GRID_SHAPE = {"series_grid": (50, 200), "compare_grid": (50, 100)}

SPACES = tuple((k, n) for k in (1, 2) for n in (1, 2, 3))

#: the --tol every grid command is given; the oracle check allows it
TOL = 1e-10

T_RANGE = (0.05, 2.0)
D_RANGE = (0.0, 1.5)


@dataclass(frozen=True)
class Command:
    """One projheat invocation and what its output must contain."""

    kind: str  # "table", "compare" or "selftest"
    k: int = 0
    n: int = 0
    t_grid: Optional[tuple] = None  # (a, b, steps)
    d_grid: Optional[tuple] = None
    tol: float = TOL

    def argv(self) -> list:
        if self.kind == "selftest":
            return ["selftest"]
        args = [self.kind, "--space", "cpn" if self.k == 1 else "hpn", "--n", str(self.n),
                "--t-grid", _grid_arg(self.t_grid), "--d-grid", _grid_arg(self.d_grid),
                "--tol", repr(self.tol), "--format", "csv"]
        if self.kind == "table":
            args += ["--method", "series"]
        return args

    def units(self) -> int:
        """Work units for ``points_per_s``: the requested grid points, or 1 for ``selftest``.

        Fixed by the request, so a change to how many reports the suite
        prints cannot move the metric.
        """
        if self.kind == "selftest":
            return 1
        return self.t_grid[2] * self.d_grid[2]

    def grid(self) -> tuple:
        """The (t, d) values of the requested grid, as the CLI's linspace makes them."""
        return _linspace(self.t_grid), _linspace(self.d_grid)


def _grid_arg(grid: tuple) -> str:
    return f"{grid[0]!r}:{grid[1]!r}:{grid[2]}"


def _linspace(grid: tuple) -> list:
    return [float(v) for v in np.linspace(grid[0], grid[1], grid[2])]


def make_commands(workload: str, seed: int, shape: Optional[tuple] = None) -> list:
    """The commands of one pass of ``workload``, drawn from ``seed``.

    ``shape`` overrides the (t steps, d steps) of the grid commands, for
    quick runs of the whole pipeline on tiny grids.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "selftest":
        return [Command("selftest")]
    rng = random.Random(f"{workload}:{seed}")
    nt, nd = shape or GRID_SHAPE[workload]
    kind = "table" if workload == "series_grid" else "compare"
    commands = []
    for k, n in SPACES:
        t_grid = (round(T_RANGE[0] + 0.005 * rng.random(), 6),
                  round(T_RANGE[1] - 0.1 * rng.random(), 6), nt)
        d_grid = (round(D_RANGE[0] + 0.01 * rng.random(), 6),
                  round(D_RANGE[1] - 0.01 * rng.random(), 6), nd)
        commands.append(Command(kind, k, n, t_grid, d_grid))
    return commands

