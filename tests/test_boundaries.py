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
an allowlist, with the reason it stays.
"""

import ast
import inspect
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
        # the kernel builds psi_sum's series itself, once per grid, and calls it
        assert _key(thetapsi.PsiSeries.__call__) in INTEGRAL
        assert _key(thetapsi._weights) in INTEGRAL
        assert _key(orthopoly.gegenbauer_step) in INTEGRAL

    def test_series_path_reaches_jacobi_step(self):
        assert _key(orthopoly.jacobi_step) in SERIES
        assert _key(kernels._check_args) in SERIES

    def test_module_attribute_chains_and_lambdas_are_followed(self):
        # _check_theta_ladder names thetapsi.psi_sum and _theta_sum inside a lambda
        seen = reach(verify._check_theta_ladder)
        assert {_key(thetapsi.psi_sum), _key(verify._theta_sum)} <= seen

    def test_construction_is_followed_through_properties(self):
        seen = reach(geometry.SpaceDescriptor)
        assert "projheat.geometry.SpaceDescriptor.__post_init__" in seen
        assert "projheat.geometry.SpaceDescriptor.spectral_offset" in seen
        assert "projheat.errors.DomainError" in seen


def test_series_and_integral_paths_meet_only_in_checks_and_errors():
    allowed = {_key(kernels._check_args)} | reach(geometry.SpaceDescriptor)
    shared = {key for key in SERIES & INTEGRAL
              if key not in allowed and not key.startswith("projheat.errors.")}
    assert shared == set()


@pytest.mark.parametrize("oracle,certified", [
    (verify._theta_sum, thetapsi.psi_sum),
    (verify._brute_sum, thetapsi.psi_sum),
    (verify._ladder_fd, thetapsi.psi_sum),
    (verify._theta_sum, thetapsi.PsiSeries),
    (verify._brute_sum, thetapsi.PsiSeries),
    (verify._ladder_fd, thetapsi.PsiSeries),
    (verify._exact_jacobi, orthopoly.jacobi_step),
    (verify._jacobi_theta2_reference, verify._theta_sum),
], ids=lambda f: f.__name__)
def test_oracle_does_not_reach_what_it_certifies(oracle, certified):
    assert _key(certified) not in reach(oracle)


#: names defined in the production modules that ``cli.main`` never reaches, by reason
UNREACHED_FROM_CLI = {
    # README's "Library use" names, and the argument checks, row assembly and
    # point encoding that only they run; the suite certifies them, and
    # perfbench/tracecmd.py wraps the five names by module name too
    "projheat.thetapsi.psi_sum",
    "projheat.geometry.distance",
    "projheat.geometry._unit_points",
    "projheat.geometry.scale_point",
    "projheat.orthopoly.jacobi_p",
    "projheat.orthopoly.gegenbauer_c",
    "projheat.orthopoly.ladder_apply",
    "projheat.orthopoly._check_degrees",
    "projheat.orthopoly._check_order",
    "projheat.orthopoly._check_x",
    "projheat.orthopoly._rows",
    "projheat.orthopoly._one_or_rows",
    # suite references that perfbench/tracecmd.py wraps by module name: moved
    # elsewhere, per-layer counts such as geometry.volume_density.calls read 0
    "projheat.quadrature.integrate_weighted",
    "projheat.geometry.volume_density",
    "projheat.geometry.density_constant",
    "projheat.geometry.radial_laplacian_fd",
    # suite references that only verify reads
    "projheat.orthopoly.jacobi_endpoint",
    "projheat.geometry.manifold_volume",
    "projheat.geometry.stationary_value",
    "projheat.geometry._offset_factorial",
    "projheat.geometry.random_unit_scalar",
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
