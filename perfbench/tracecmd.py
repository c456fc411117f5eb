"""Run one projheat CLI command with spans around each module's public calls.

    python perfbench/tracecmd.py <projheat arguments>   # e.g. table --n 2 ...
    python perfbench/tracecmd.py --groups               # time each verify group

The first form imports projheat, wraps the public functions listed in
TRACED in place (in every projheat module that bound them, so calls across
modules are caught too) and runs ``projheat.cli.main`` on the arguments.
The command's own output goes to stdout as usual.  Spans are aggregated in
memory as they close; a function's self time is its span time minus the
time covered by the traced calls it made.  At exit one line

    PERFBENCH_TRACE {"kernels.series_values": {"calls": ..., "self_s": ...}, ...}

goes to stderr, and the process exits with the command's exit code.

The second form runs every group that ``verify.group_names()`` returns
through ``full_suite(SuiteProfile(groups=(name,)))``, untraced, and reports
each group's wall time and report count on the same kind of line.

A traced name that projheat no longer defines is skipped; its metrics
then read 0.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np

MARKER = "PERFBENCH_TRACE "


class Tracer:
    """Aggregates spans by name: calls, self time and per-name counters."""

    def __init__(self):
        self.stats = {}
        self.stack = []  # open spans: [name, time covered by child spans]
        self.rule_counts = set()

    def stat(self, name: str) -> dict:
        return self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})

    def count(self, name: str, key: str, amount) -> None:
        st = self.stat(name)
        st[key] = st.get(key, 0) + amount

    def wrap(self, fn, name, hook=None):
        """``fn`` with a span; ``name`` is a string or a function of (args, kwargs).

        ``hook(tracer, args, kwargs, result, error, parent)`` records the
        counters of a call after its span closes; ``parent`` is the name of
        the enclosing span, if any.
        """
        tracer = self

        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args, kwargs), 0.0]
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer.stack.append(span)
            result, error = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                elapsed = time.perf_counter() - start
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][1] += elapsed
                st = tracer.stat(span[0])
                st["calls"] += 1
                st["self_s"] += elapsed - span[1]
                if hook is not None:
                    hook(tracer, args, kwargs, result, error, parent)

        traced.__wrapped__ = fn
        return traced


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _series_values(tr, args, kwargs, result, error, parent):
    name = "kernels.series_values"
    if error is not None:
        tr.count(name, "errors", 1)
        return
    tr.count(name, "points", int(np.size(_arg(args, kwargs, 3, "d"))))
    tr.count(name, "terms", int(result[1]))


def _psi_sum(tr, args, kwargs, result, error, parent):
    tr.count("thetapsi.psi_sum", "nodes", int(np.size(_arg(args, kwargs, 3, "u"))))


def _adaptive_integrate(tr, args, kwargs, result, error, parent):
    name = "quadrature.adaptive_integrate"
    if error is not None:
        tr.count(name, "errors", 1)
    else:
        tr.count(name, "nodes_final", int(result.nodes))


def _integrate_weighted(tr, args, kwargs, result, error, parent):
    if parent == "quadrature.adaptive_integrate":
        rule = _arg(args, kwargs, 2, "rule")
        tr.count(parent, "nodes_evaluated", int(rule.count))


def _gauss_legendre_rule(tr, args, kwargs, result, error, parent):
    count = _arg(args, kwargs, 0, "count")
    if count not in tr.rule_counts:
        tr.rule_counts.add(count)
        tr.count("quadrature.gauss_legendre_rule", "new_counts", 1)


def _unified_name(args, kwargs) -> str:
    return "kernels.unified." + str(_arg(args, kwargs, 5, "method", "series"))


#: (module, attribute, span name, counter hook); a dotted attribute is a method
TRACED = (
    ("cli", "main", "cli.main", None),
    ("kernels", "unified", _unified_name, None),
    ("kernels", "series_values", "kernels.series_values", _series_values),
    ("thetapsi", "psi_sum", "thetapsi.psi_sum", _psi_sum),
    ("thetapsi", "theta_sum", "thetapsi.theta_sum", None),
    ("thetapsi", "jacobi_theta2_reference", "thetapsi.jacobi_theta2_reference", None),
    ("quadrature", "adaptive_integrate", "quadrature.adaptive_integrate", _adaptive_integrate),
    ("quadrature", "integrate_weighted", "quadrature.integrate_weighted", _integrate_weighted),
    ("quadrature", "gauss_legendre_rule", "quadrature.gauss_legendre_rule",
     _gauss_legendre_rule),
    ("orthopoly", "jacobi_p", "orthopoly.jacobi_p", None),
    ("orthopoly", "gegenbauer_c", "orthopoly.gegenbauer_c", None),
    ("orthopoly", "cosine_ladder", "orthopoly.cosine_ladder", None),
    ("orthopoly", "ladder_apply", "orthopoly.ladder_apply", None),
    ("orthopoly", "LadderResult.evaluate", "orthopoly.LadderResult.evaluate", None),
    ("geometry", "radial_laplacian_fd", "geometry.radial_laplacian_fd", None),
    ("geometry", "volume_density", "geometry.volume_density", None),
    ("geometry", "distance", "geometry.distance", None),
    ("verify", "make_report", "verify.make_report", None),
)


def install(tracer: Tracer) -> None:
    """Replace every traced function, in each projheat module that holds it."""
    owners = {}
    for module_name in dict.fromkeys(entry[0] for entry in TRACED):
        try:
            owners[module_name] = importlib.import_module(f"projheat.{module_name}")
        except ImportError:
            pass
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "projheat" or key.startswith("projheat."))]
    for module_name, attr, name, hook in TRACED:
        owner = owners.get(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            continue
        traced = tracer.wrap(original, name, hook)
        if path:  # a method: patch the class
            setattr(owner, leaf, traced)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def run_groups() -> dict:
    from projheat import verify

    out = {}
    for group in verify.group_names():
        start = time.perf_counter()
        reports = verify.full_suite(verify.SuiteProfile(groups=(group,)))
        out[group] = {"s": time.perf_counter() - start, "reports": len(reports)}
    return out


def main(argv: list) -> int:
    if argv == ["--groups"]:
        print(MARKER + json.dumps(run_groups()), file=sys.stderr)
        return 0
    tracer = Tracer()
    install(tracer)
    from projheat import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        print(MARKER + json.dumps(tracer.stats), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
