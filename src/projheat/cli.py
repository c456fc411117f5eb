"""Command-line front end: value tables, comparisons, self-test.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
non-convergence, 141 standard output closed by its reader (as a shell
reports SIGPIPE, e.g. after ``| head``; nothing goes to stderr then).
Numeric output is printed with 17 significant digits so tables are
reproducible byte for byte.

The CLI checks no argument that ``kernels.unified`` checks (the index, a
time below ``kernels.MIN_TIME``, the distances, the tolerance): it only
parses the grids, refuses ``--t`` with ``--t-grid`` and opens ``--out``.

``python -m projheat`` and the ``projheat`` script run ``run()``: it calls
``main``, flushes the output and exits without interpreter teardown, so
``atexit`` handlers and finalizers of that process do not run.  Code that
embeds the CLI calls ``main(argv)``, which returns the exit code.

``table`` evaluates the method that ``--method`` names, at one point or
over a grid, and ``compare`` alone evaluates both.  Both evaluate the
whole (t, d) grid with one ``kernels.unified`` call per method, and write
it one t-row at a time, each row one block of lines formatted from that
row of the records' arrays, by one path whatever the method: the CLI
writes what the record holds and assumes nothing about how a method
truncates.
A grid that fails exits with the error of the first failing t, and in
``compare`` at one t with the series' error before the integral's: this
module alone owns that rule, and applies it by evaluating a failing grid
again row by row (see ``_evaluate_grid``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import kernels
from .errors import ProjheatError, QuadratureConvergenceError, TruncationCapError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_grid(text: str, name: str) -> list:
    """Parse 'a:b:steps' into an inclusive linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--{name} expects a:b:steps, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"--{name}: {exc}") from None
    if steps < 1:
        raise UsageError(f"--{name}: steps must be >= 1")
    if steps > 1 and not b > a:
        raise UsageError(f"--{name}: need a < b for more than one step")
    return [float(v) for v in np.linspace(a, b, steps)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projheat",
        description="Heat kernels on complex and quaternionic projective space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats, default_format, with_method=True):
        p.add_argument("--space", choices=("cpn", "hpn"), default="hpn",
                       help="projective space family (default hpn)")
        p.add_argument("--n", type=int, default=1, help="projective index n >= 1")
        p.add_argument("--t", type=float, default=None, help="diffusion time")
        p.add_argument("--t-grid", default=None, metavar="A:B:STEPS",
                       help="inclusive time grid")
        p.add_argument("--d", type=float, default=None, help="geodesic distance")
        p.add_argument("--d-grid", default=None, metavar="A:B:STEPS",
                       help="inclusive distance grid")
        if with_method:
            p.add_argument("--method", choices=kernels.METHODS, default="series",
                           help="representation to evaluate (default series); "
                                "compare evaluates both")
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--format", choices=formats, default=default_format, dest="fmt")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_table = sub.add_parser("table", help="emit a value table at a point or over grids")
    add_common(p_table, ("csv", "json"), "csv")

    p_cmp = sub.add_parser("compare", help="series vs integral over grids")
    add_common(p_cmp, ("csv", "json", "pretty"), "pretty", with_method=False)

    p_self = sub.add_parser("selftest", help="run the identity verification suite")
    p_self.add_argument("--only", default=None, metavar="PREFIX",
                        help="restrict to groups whose name starts with PREFIX")
    p_self.add_argument("--json", action="store_true", help="line-JSON reports")
    p_self.add_argument("--out", default=None)

    return parser


def _values_from_args(args, name: str, grid_default: str) -> list:
    single = getattr(args, name)
    grid = getattr(args, f"{name}_grid")
    if single is not None and grid is not None:
        raise UsageError(f"give either --{name} or --{name}-grid, not both")
    if single is not None:
        return [float(single)]
    if grid is not None:
        return _parse_grid(grid, f"{name}-grid")
    return _parse_grid(grid_default, f"{name}-grid")


def _output(args):
    """The --out file, or stdout when none is given; an --out that cannot open is a UsageError."""
    if args.out is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from None


def _evaluate_grid(args, t_default, d_default, methods, tol):
    """Kernel records over the requested grid: (k, n, ts, ds, records).

    ``records`` holds one grid record per method, in the order of
    ``methods``: the KernelValue of (t, d) arrays that one ``unified``
    call gives over every time of ``ts`` and distance of ``ds``.

    A grid call raises the first error its own evaluation meets, which
    need not be the first failing row's.  So when one fails, the grid is
    evaluated again row by row, in (t, method) order, and the first row
    that fails raises its error.  If no row fails alone, the records are
    built from the rows, each bit for bit its part of the grid.
    """
    k, n = 1 if args.space == "cpn" else 2, args.n
    ts = _values_from_args(args, "t", t_default)
    ds = _values_from_args(args, "d", d_default)
    try:  # unified checks (k, n), the times, the distances and tol, before any output opens
        records = [kernels.unified(n, k, ts, ds, tol, m) for m in methods]
    except (TruncationCapError, QuadratureConvergenceError):
        rows = [[kernels.unified(n, k, t, ds, tol, m) for m in methods] for t in ts]
        records = [kernels.KernelValue._make(map(np.stack, zip(*column))) for column in zip(*rows)]
    return k, n, ts, ds, records


def _block(line: str, *columns) -> str:
    """One t-row of output: ``line % entries`` for the entries of each distance, joined."""
    return "".join([line % entries for entries in zip(*columns)])


def cmd_table(args) -> int:
    k, n, ts, ds, [res] = _evaluate_grid(args, "0.2:1:3", "0:1.2:5", (args.method,),
                                         args.tol)
    names = ("value", "est_error", "terms_or_nodes")
    d_strs = [_fmt(d) for d in ds]

    with _output(args) as out:
        if args.fmt != "json":
            out.write(f"k,n,t,d,method,{','.join(names)}\n")
        for t, *columns in zip(ts, res.value, res.est_error, res.terms_or_nodes):
            if args.fmt == "json":
                head = {"k": k, "n": n, "t": t}
                out.write("".join(
                    json.dumps({**head, "d": d, "method": args.method,
                                **dict(zip(names, entries))}) + "\n"
                    for d, *entries in zip(ds, *(c.tolist() for c in columns))))
            else:  # one row path for every method: each column is the record's own
                line, varying = f"{k},{n},{_fmt(t)},%s,{args.method}", [d_strs]
                for c in columns:  # bit for bit the same along the row: formatted once
                    if c.tobytes() == c[:1].tobytes() * c.size:
                        line += "," + _fmt(c[0])
                    else:  # %.17g prints a node or term count as %d does
                        line, varying = line + ",%.17g", [*varying, c.tolist()]
                out.write(_block(line + "\n", *varying))
    return EXIT_OK


def cmd_compare(args) -> int:
    from . import verify  # here, not at the top: table needs only kernels
    tol = args.tol  # the kernels' tolerance is at most 1e-10, and unified refuses an inf one
    k, n, ts, ds, (series, integral) = _evaluate_grid(
        args, "0.1:1:4", "0:1.4:6", kernels.METHODS, min(tol, 1e-10) if tol < math.inf else tol)
    grid_abs, grid_rel, grid_passed = verify.compare_values(series.value, integral.value, tol)
    d_strs = [_fmt(d) for d in ds]
    with _output(args) as out:
        if args.fmt == "csv":
            out.write("k,n,t,d,value_series,value_integral,abs_err,rel_err,status\n")
        for t, rs, ri, abs_err, rel_err, passed in zip(ts, series.value, integral.value,
                                                        grid_abs, grid_rel, grid_passed):
            if args.fmt == "json":
                out.write("".join(
                    verify.VerificationReport(
                        "representation_equivalence",
                        {"k": k, "n": n, "t": t, "d": d},
                        *entries, tol=tol, passed=ok,
                    ).to_json() + "\n"
                    for d, ok, *entries in zip(ds, passed.tolist(), rs.tolist(),
                                               ri.tolist(), abs_err.tolist(),
                                               rel_err.tolist())))
            elif args.fmt == "csv":
                out.write(_block(
                    f"{k},{n},{_fmt(t)},%s,%.17g,%.17g,%.17g,%.17g,%s\n",
                    d_strs, rs.tolist(), ri.tolist(), abs_err.tolist(),
                    rel_err.tolist(), np.where(passed, "pass", "fail").tolist()))
            else:
                out.write(_block(
                    f"%s k={k} n={n} t={_fmt(t)} d=%s "
                    "series=%.17g integral=%.17g rel_err=%.3e\n",
                    np.where(passed, "PASS", "FAIL").tolist(), d_strs, rs.tolist(),
                    ri.tolist(), rel_err.tolist()))
    return EXIT_OK if grid_passed.all() else EXIT_VERIFY_FAILED


def cmd_selftest(args) -> int:
    from . import verify
    groups = (args.only,) if args.only else None
    reports = verify.full_suite(verify.SuiteProfile(groups=groups))
    if not reports:  # before --out is opened, so no output is written
        raise UsageError(f"no checks match --only {args.only!r}")

    with _output(args) as out:
        if args.json:
            for rep in reports:
                out.write(rep.to_json() + "\n")
        else:
            for rep in reports:
                status = "PASS" if rep.passed else "FAIL"
                params = ",".join(f"{k}={v}" for k, v in rep.parameters.items())
                out.write(
                    f"{status} {rep.identity_name} [{params}] "
                    f"abs_err={rep.abs_err:.3e} rel_err={rep.rel_err:.3e} tol={rep.tol:g}\n"
                )
            n_fail = sum(1 for r in reports if not r.passed)
            out.write(f"# {len(reports) - n_fail}/{len(reports)} checks passed\n")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: --help and usage errors
        return exc.code
    handlers = {
        "table": cmd_table,
        "compare": cmd_compare,
        "selftest": cmd_selftest,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the exit-time flush would fail again: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (TruncationCapError, QuadratureConvergenceError) as exc:
        print(f"projheat: no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (UsageError, ProjheatError) as exc:
        print(f"projheat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Process entry of ``python -m projheat`` and the ``projheat`` script.

    Runs ``main`` on ``sys.argv``, flushes stdout and stderr, and ends the
    process with ``os._exit``: interpreter teardown with numpy loaded costs
    about 35 ms, more than a 50 x 200 ``table`` computes.  ``atexit``
    handlers and finalizers of the process do not run.  A closed stdout
    on the last flush exits 141 with nothing on stderr, and any other
    exception ends the process the usual way.  It ends its caller: code
    that embeds the CLI calls ``main(argv)``, which returns the exit code.
    """
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
