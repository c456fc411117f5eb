"""The package's two trust boundaries, pinned by walking what each function names.

The series path and the integral path must share no evaluation code, and
no oracle in ``verify`` may reach the function it certifies: either would
make an agreement that the suite reports prove nothing.  ``reach`` reads a
function's source and follows every global name and every ``module.attr``
chain in it (nested functions and lambdas included), transitively through
the package's own functions and classes.  A class is followed through what
its construction and its call run, ``__post_init__`` and the methods and
properties they read on ``self``.  Attributes of local values
(``row.value``) and callables passed in as arguments are not followed; the
positive controls below show that the walk does see what each path is
known to call.

A third pin keeps the production modules to what the CLI runs: every
function and class they define is reached from ``cli.main`` or named on
an allowlist, with the reason it stays.  A fourth lists the benchmark
tracer's targets that no longer resolve, since the tracer skips them and
their metrics read 0, and the suite groups that the benchmark names
metrics for and the suite no longer has, which read 0 the same way; and
a traced command still counts the series' points and terms, which the
benchmark's own tests assert.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from projheat import cli, geometry, kernels, orthopoly, quadrature, thetapsi, verify


def _key(obj) -> str:
    return f"{obj.__module__}.{obj.__qualname__}"


def _ours(obj) -> bool:
    return ((inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__.startswith("projheat"))


def _resolve(node, namespace: dict, owner):
    """(object, owning class) that a Name or an attribute chain names, or (None, None)."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id), None
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self" and owner is not None:
            return inspect.getattr_static(owner, node.attr, None), owner
        base, _ = _resolve(node.value, namespace, owner)
        if inspect.ismodule(base) or inspect.isclass(base):
            return getattr(base, node.attr, None), base if inspect.isclass(base) else None
    return None, None


def _named(fn, owner) -> list:
    """(object, owning class) for every Name and attribute chain in the source of ``fn``."""
    fn = inspect.unwrap(fn)
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):  # generated, such as a dataclass __init__
        return []
    return [_resolve(node, fn.__globals__, owner)
            for node in ast.walk(ast.parse(textwrap.dedent(source)))
            if isinstance(node, (ast.Name, ast.Attribute))]


def reach(root) -> set:
    """Keys of the package functions and classes reachable from ``root``, itself included."""
    seen = set()
    stack = [(root, None)]
    while stack:
        obj, owner = stack.pop()
        if isinstance(obj, property):
            obj = obj.fget
        if not _ours(obj) or _key(obj) in seen:
            continue
        seen.add(_key(obj))
        if inspect.isclass(obj):
            stack.extend((vars(obj)[name], obj)
                         for name in ("__init__", "__post_init__", "__call__")
                         if name in vars(obj))
        else:
            stack.extend(_named(obj, owner))
    return seen


SERIES = reach(kernels.series_values)
INTEGRAL = reach(kernels._integral_kernel)


class TestPositiveControls:
    def test_integral_path_reaches_psi_sum(self):
        # the kernel builds the ladder series itself, once per grid, and calls it
        assert _key(thetapsi.PsiSeries.__call__) in INTEGRAL
        assert _key(thetapsi._weights) in INTEGRAL
        assert _key(orthopoly.gegenbauer_step) in INTEGRAL

    def test_series_path_reaches_jacobi_step(self):
        assert _key(orthopoly.jacobi_step) in SERIES
        assert _key(geometry.SpaceDescriptor) in SERIES

    def test_module_attribute_chains_and_lambdas_are_followed(self):
        # _check_theta_ladder names thetapsi.PsiSeries, and _theta_sum inside a lambda
        seen = reach(verify._check_theta_ladder)
        assert {_key(thetapsi.PsiSeries), _key(verify._theta_sum)} <= seen

    def test_construction_is_followed_through_properties(self):
        seen = reach(geometry.SpaceDescriptor)
        assert "projheat.geometry.SpaceDescriptor.__post_init__" in seen
        assert "projheat.geometry.SpaceDescriptor.spectral_offset" in seen
        assert "projheat.errors.DomainError" in seen


def test_series_and_integral_paths_meet_only_in_checks_and_errors():
    # the one check they share is the space's; unified checks the rest before either runs
    allowed = reach(geometry.SpaceDescriptor)
    shared = {key for key in SERIES & INTEGRAL
              if key not in allowed and not key.startswith("projheat.errors.")}
    assert shared == set()


def test_only_unified_checks_the_arguments():
    assert _key(kernels._check_args) in reach(kernels.unified)
    assert _key(kernels._check_args) not in SERIES | INTEGRAL


def test_the_cli_builds_no_space_of_its_own():
    # what the CLI's own functions name: unified, but no space and no check
    named = {_key(obj) for fn in vars(cli).values()
             if inspect.isfunction(fn) and fn.__module__ == cli.__name__
             for obj, _ in _named(fn, None) if _ours(obj)}
    assert _key(kernels.unified) in named
    assert named.isdisjoint({_key(geometry.SpaceDescriptor), _key(kernels._check_args)})


@pytest.mark.parametrize("oracle,certified", [
    (verify._theta_sum, thetapsi.PsiSeries),
    (verify._brute_sum, thetapsi.PsiSeries),
    (verify._ladder_fd, thetapsi.PsiSeries),
    (verify._exact_jacobi, orthopoly.jacobi_step),
    (verify._jacobi_theta2_reference, verify._theta_sum),
    (verify._stationary_value, kernels.series_values),
    (verify._stationary_value, kernels._integral_kernel),
    (verify._manifold_volume, geometry.volume_density),
    (verify._weyl_dimensions, kernels.series_values),
    (verify._weyl_dimensions, geometry.SpaceDescriptor.eigenvalue),
], ids=lambda f: f.__name__)
def test_oracle_does_not_reach_what_it_certifies(oracle, certified):
    assert _key(certified) not in reach(oracle)


#: names defined in the production modules that ``cli.main`` never reaches, by reason
UNREACHED_FROM_CLI = {
    # suite references that perfbench/tracecmd.py wraps by module name: moved
    # elsewhere, per-layer counts such as geometry.volume_density.calls read 0
    "projheat.quadrature.integrate_weighted",
    "projheat.geometry.volume_density",
    "projheat.geometry.radial_laplacian_fd",
    # the tuple base of SpaceDescriptor: the walk follows no base class
    "projheat.geometry._Index",
}


def test_production_modules_hold_what_the_cli_runs():
    defined = {_key(obj)
               for module in (kernels, thetapsi, quadrature, orthopoly, geometry)
               for obj in vars(module).values()
               if _ours(obj) and obj.__module__ == module.__name__}
    # equal, not a subset: a name the CLI comes to reach leaves the list
    assert defined - reach(cli.main) == UNREACHED_FROM_CLI


#: TRACED targets of perfbench/tracecmd.py that projheat no longer defines, by reason
STALE_TRACE_TARGETS = {
    ("thetapsi", "psi_sum"): "deleted: rows of PsiSeries are its one-time calls",
    ("thetapsi", "theta_sum"): "moved into verify as the oracle _theta_sum",
    ("thetapsi", "jacobi_theta2_reference"): "moved into verify as _jacobi_theta2_reference",
    ("quadrature", "adaptive_integrate"): "replaced by the grid loop adaptive_integrate_row",
    ("orthopoly", "cosine_ladder"): "deleted: the closed-form ladder covers a cosine harmonic",
    ("orthopoly", "LadderResult.evaluate"): "deleted with the LadderResult class",
    ("orthopoly", "jacobi_p"): "moved into verify as _jacobi_p: only the suite evaluates it",
    ("orthopoly", "gegenbauer_c"): "moved into verify as _gegenbauer_c, then folded into "
                                   "_ladder_apply: C_l^lam is its m = 0 case",
    ("orthopoly", "ladder_apply"): "moved into verify as _ladder_apply",
    ("verify", "make_report"): "replaced by _row_reports, _worst_report and _flag_report",
    ("geometry", "distance"): "deleted with the point code (ROADMAP item 4's default)",
}


def test_stale_trace_targets_are_declared(monkeypatch):
    # perfbench/tracecmd.py skips a target that does not resolve, and its metrics read 0
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracecmd.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no cache in perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_tracecmd", path)
    tracecmd = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracecmd)
    unresolved = set()
    for module_name, attr, *_ in tracecmd.TRACED:  # resolved as tracecmd.install does
        owner = importlib.import_module(f"projheat.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            unresolved.add((module_name, attr))
    assert unresolved == set(STALE_TRACE_TARGETS)


#: verify groups that BENCHMARK.json names metrics for and the suite no longer has, by reason
STALE_GROUP_METRICS = {
    "theta_relation": "merged into theta2, one group on the union grid",
    "theta_parity": "deleted: it checked that np.cos is even",
    "kernels_prefactor": "deleted: it compared one number with itself written another way",
    "geometry_invariance": "deleted with the point code (ROADMAP item 4's default)",
}


def test_stale_group_metrics_are_declared():
    # perfbench/run.py reads verify.<group>.{s,reports} from tracecmd.py --groups, 0 when absent
    spec = json.loads((pathlib.Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    named = {name.split(".")[1] for name in (metric["name"] for metric in spec["per_layer"])
             if name.startswith("verify.") and name.rsplit(".", 1)[1] in ("s", "reports")}
    assert named - set(verify.group_names()) == set(STALE_GROUP_METRICS)


@pytest.mark.parametrize("command", [["table", "--method", "series"], ["compare"]],
                         ids=["table", "compare"])
def test_traced_command_counts_series_points(command):
    # what perfbench/selfcheck.py asserts of a traced run, on a 2 x 3 grid
    root = pathlib.Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "perfbench/tracecmd.py", *command, "--space", "hpn", "--n", "2",
         "--t-grid", "0.2:1:2", "--d-grid", "0:1.2:3"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    [line] = [line for line in proc.stderr.splitlines() if line.startswith("PERFBENCH_TRACE ")]
    stats = json.loads(line.removeprefix("PERFBENCH_TRACE "))["kernels.series_values"]
    assert stats["points"] == 2 * 3 and type(stats["terms"]) is int
