"""Command-line front end: point evaluation, grid tables, comparisons, self-test.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
non-convergence, 141 standard output closed by its reader (as a shell
reports SIGPIPE, e.g. after ``| head``; nothing goes to stderr then).
Numeric output is printed with 17 significant digits so tables are
reproducible byte for byte.

``python -m projheat`` and the ``projheat`` script run ``run()``: it calls
``main``, flushes the output and exits without interpreter teardown, so
``atexit`` handlers and finalizers of that process do not run.  Code that
embeds the CLI calls ``main(argv)``, which returns the exit code.

``table`` and ``compare`` evaluate the grid one t-row at a time: each row
is one ``kernels.unified`` call per method over every distance, and is
written as one block of lines, formatted from the row's arrays.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import kernels, verify
from .errors import ProjheatError, QuadratureConvergenceError, TruncationCapError
from .geometry import SpaceDescriptor

_HALF_PI = 0.5 * math.pi

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

    def add_common(p, with_method=True):
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
            p.add_argument("--method", choices=("series", "integral", "both"),
                           default="series")
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--format", choices=("csv", "json", "pretty"), default="pretty",
                       dest="fmt")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_eval = sub.add_parser("eval", help="evaluate the kernel at one point")
    add_common(p_eval)

    p_table = sub.add_parser("table", help="emit a value table over grids")
    add_common(p_table)

    p_cmp = sub.add_parser("compare", help="series vs integral over grids")
    add_common(p_cmp, with_method=False)

    p_self = sub.add_parser("selftest", help="run the identity verification suite")
    p_self.add_argument("--only", default=None,
                        help="restrict to groups whose name starts with this")
    p_self.add_argument("--json", action="store_true", help="line-JSON reports")
    p_self.add_argument("--out", default=None)

    return parser


def _space_from_args(args) -> SpaceDescriptor:
    return SpaceDescriptor(n=args.n, k=1 if args.space == "cpn" else 2)


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


def _validate_times(ts) -> None:
    for t in ts:
        if not kernels.MIN_TIME <= t < math.inf:
            raise UsageError(
                f"t={t} out of range: diffusion time must be finite and >= {kernels.MIN_TIME}"
            )


def _validate_distances(ds) -> None:
    for d in ds:
        if not (0.0 <= d < _HALF_PI):
            raise UsageError(f"d={d} out of range: distance must lie in [0, pi/2)")


@contextlib.contextmanager
def _output(args):
    """The --out file, or stdout when none is given."""
    if args.out is None:
        yield sys.stdout
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as out:
            yield out


def _methods(args) -> tuple:
    return kernels.METHODS if args.method == "both" else (args.method,)


def _evaluate_grid(args, t_default, d_default, methods, tol):
    """Kernel rows over the requested grid: (space, ds, rows).

    ``rows`` holds one (t, records) pair per t, in grid order.  ``records``
    holds one row record per method, in the order of ``methods``: the
    KernelValue of arrays that one ``unified`` call gives over every
    distance of ``ds``.
    """
    space = _space_from_args(args)
    ts = _values_from_args(args, "t", t_default)
    ds = _values_from_args(args, "d", d_default)
    _validate_times(ts)
    _validate_distances(ds)
    rows = [(t, [kernels.unified(space.n, space.k, t, ds, tol, m) for m in methods])
            for t in ts]
    return space, ds, rows


def _block(line: str, *columns) -> str:
    """One t-row of output: ``line % entries`` for the entries of each distance, joined."""
    return "".join([line % entries for entries in zip(*columns)])


def cmd_eval(args) -> int:
    """One point; csv and json are the 1 x 1 table, pretty is name-value lines."""
    for name in ("t", "d"):
        given = getattr(args, name) is not None or getattr(args, f"{name}_grid")
        if not given or len(_values_from_args(args, name, None)) != 1:
            raise UsageError(f"eval needs a single --{name}")
    if args.fmt != "pretty":
        return cmd_table(args)
    _, _, [(_, results)] = _evaluate_grid(args, None, None, _methods(args), args.tol)

    with _output(args) as out:
        if args.method == "both":
            vs, vi = (float(r.value[0]) for r in results)
            out.write(f"value_series   {_fmt(vs)}\n")
            out.write(f"value_integral {_fmt(vi)}\n")
            out.write(f"abs_diff       {_fmt(abs(vs - vi))}\n")
        else:
            [res] = results
            out.write(f"value          {_fmt(res.value[0])}\n")
            out.write(f"method         {args.method}\n")
            out.write(f"terms_or_nodes {res.terms_or_nodes[0]}\n")
            out.write(f"est_error      {_fmt(res.est_error[0])}\n")
    return EXIT_OK


def cmd_table(args) -> int:
    space, ds, rows = _evaluate_grid(args, "0.2:1:3", "0:1.2:5", _methods(args), args.tol)
    both = args.method == "both"
    names = ("value_series", "value_integral", "abs_diff") if both else (
        "value", "est_error", "terms_or_nodes")
    d_strs = [_fmt(d) for d in ds]

    with _output(args) as out:
        if args.fmt != "json":
            out.write(f"k,n,t,d,method,{','.join(names)}\n")
        for t, results in rows:
            if both:
                a, b = results
                columns = [a.value, b.value, np.abs(a.value - b.value)]
            else:
                [a] = results
                columns = [a.value, a.est_error, a.terms_or_nodes]
            if args.fmt == "json":
                head = {"k": space.k, "n": space.n, "t": t}
                method = {} if both else {"method": args.method}
                out.write("".join(
                    json.dumps({**head, "d": d, **method, **dict(zip(names, entries))}) + "\n"
                    for d, *entries in zip(ds, *(c.tolist() for c in columns))))
            elif args.method == "series":  # one tail bound and term count per row
                out.write(_block(f"{space.k},{space.n},{_fmt(t)},%s,series,%.17g,"
                                 f"{_fmt(a.est_error[0])},{a.terms_or_nodes[0]}\n",
                                 d_strs, a.value.tolist()))
            else:  # %.17g prints a node count as %d does
                out.write(_block(f"{space.k},{space.n},{_fmt(t)},%s,{args.method},"
                                 "%.17g,%.17g,%.17g\n", d_strs, *(c.tolist() for c in columns)))
    return EXIT_OK


def cmd_compare(args) -> int:
    tol = args.tol
    space, ds, rows = _evaluate_grid(args, "0.1:1:4", "0:1.4:6", kernels.METHODS,
                                     min(tol, 1e-10))
    all_ok = True
    d_strs = [_fmt(d) for d in ds]
    with _output(args) as out:
        if args.fmt == "csv":
            out.write("k,n,t,d,value_series,value_integral,abs_err,rel_err,status\n")
        for t, (rs, ri) in rows:
            abs_err, rel_err, passed = verify.compare_values(rs.value, ri.value, tol)
            all_ok = all_ok and bool(passed.all())
            if args.fmt == "json":
                out.write("".join(
                    verify.VerificationReport(
                        "representation_equivalence",
                        {"k": space.k, "n": space.n, "t": t, "d": d},
                        *entries, tol=tol, passed=ok,
                    ).to_json() + "\n"
                    for d, ok, *entries in zip(ds, passed.tolist(), rs.value.tolist(),
                                               ri.value.tolist(), abs_err.tolist(),
                                               rel_err.tolist())))
            elif args.fmt == "csv":
                out.write(_block(
                    f"{space.k},{space.n},{_fmt(t)},%s,%.17g,%.17g,%.17g,%.17g,%s\n",
                    d_strs, rs.value.tolist(), ri.value.tolist(), abs_err.tolist(),
                    rel_err.tolist(), np.where(passed, "pass", "fail").tolist()))
            else:
                out.write(_block(
                    f"%s k={space.k} n={space.n} t={_fmt(t)} d=%s "
                    "series=%.17g integral=%.17g rel_err=%.3e\n",
                    np.where(passed, "PASS", "FAIL").tolist(), d_strs, rs.value.tolist(),
                    ri.value.tolist(), rel_err.tolist()))
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_selftest(args) -> int:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "eval": cmd_eval,
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
    handlers and finalizers of the process do not run.  argparse's exit
    code (``--help``, usage errors) is kept, a closed stdout on the last
    flush exits 141 with nothing on stderr, and any other exception ends
    the process the usual way.  It ends its caller: code that embeds the
    CLI calls ``main(argv)``, which returns the exit code.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help and usage errors
        code = exc.code
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
