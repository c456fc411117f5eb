"""Gauss-Legendre rules and endpoint-regularized square-root integrals.

The integrals of interest run over u in [d, pi/2] against the weight
(cos^2 d - cos^2 u)^(+1/2 or -1/2), which is singular (or has square-root
behaviour) at the lower endpoint.  The substitution

    cos u = cos d * sin(phi),        phi in [0, pi/2],

turns both weights into smooth integrands: the Jacobian du contributes
cos d * cos(phi) / sin(u), which cancels the -1/2 weight exactly and
reduces the +1/2 weight to cos^2 d * cos^2(phi).  Gauss-Legendre then
converges geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, QuadratureConvergenceError

_HALF_PI = 0.5 * math.pi

#: most substitution nodes one call of the integrand receives
_CALL_NODES = 1 << 16

#: node counts of the doubling loop's first rule and of its last
START_NODES = 16
MAX_NODES = 4096


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gauss-Legendre rule on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def count(self) -> int:
        return self.nodes.size


_RULE_CACHE: dict[int, QuadratureRule] = {}


def _legendre_and_derivative(n: int, x: np.ndarray):
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p, p_prev = ((2.0 * k - 1.0) * x * p - (k - 1.0) * p_prev) / k, p
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre_rule(count: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1], exact for degree <= 2*count - 1.

    Nodes are the Legendre roots found by Newton iteration from the
    standard cosine initial guesses; weights are 2 / ((1 - x^2) P_n'^2).
    Results are cached and the returned arrays are read-only.
    """
    if count < 1:
        raise DomainError(f"node count must be >= 1, got {count}")
    cached = _RULE_CACHE.get(count)
    if cached is not None:
        return cached
    if count == 1:
        nodes = np.array([0.0])
        weights = np.array([2.0])
    else:
        n = count
        k = np.arange(1, n + 1, dtype=float)
        x = np.cos(math.pi * (k - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre_and_derivative(n, x)
            dx = p / dp
            x -= dx
            if np.max(np.abs(dx)) < 1e-15:
                break
        else:
            raise QuadratureConvergenceError(f"Newton iteration stalled for count={count}")
        _, dp = _legendre_and_derivative(n, x)
        weights = 2.0 / ((1.0 - x * x) * dp * dp)
        # enforce exact symmetry about the origin
        order = np.argsort(x)
        x = x[order]
        weights = weights[order]
        x = 0.5 * (x - x[::-1])
        weights = 0.5 * (weights + weights[::-1])
        if n % 2 == 1:
            x[n // 2] = 0.0
        nodes = x
    nodes.setflags(write=False)
    weights.setflags(write=False)
    rule = QuadratureRule(nodes=nodes, weights=weights)
    _RULE_CACHE[count] = rule
    return rule


def integrate_weighted(ds, exponent_sign: float, g: Callable[[np.ndarray], np.ndarray],
                       rule: QuadratureRule) -> list:
    """Integral of (cos^2 d - cos^2 u)^exponent_sign * g(u) over [d, pi/2], each d of ``ds``.

    ``exponent_sign`` is +0.5 or -0.5.  ``g`` is evaluated at interior
    points only, for whole distances per call and at most ``_CALL_NODES``
    nodes a call.  For the -1/2 weight with d = 0 the transformed
    integrand is smooth provided g carries a sin(u) factor, which every
    caller in this package does.
    """
    for d in ds:
        if not (0.0 <= d < _HALF_PI):
            raise DomainError(f"lower limit must lie in [0, pi/2), got {d}")
    if exponent_sign not in (0.5, -0.5):
        raise DomainError(f"weight exponent must be +0.5 or -0.5, got {exponent_sign}")
    cos_ds = np.array([math.cos(d) for d in ds])
    phi = (rule.nodes + 1.0) * (0.25 * math.pi)
    step = max(1, _CALL_NODES // rule.count)
    sums = []
    for lo in range(0, cos_ds.size, step):
        c = cos_ds[lo:lo + step, None]
        c_sin_phi = c * np.sin(phi)
        sin_u = np.sqrt(1.0 - c_sin_phi ** 2)
        gv = np.asarray(g(np.arccos(c_sin_phi).ravel()), dtype=float).reshape(sin_u.shape)
        weight = (c * c) * np.cos(phi) ** 2 if exponent_sign > 0 else 1.0  # 1.0 * gv is exact
        sums += [float((0.25 * math.pi) * (rule.weights @ row)) for row in weight * gv / sin_u]
    return sums


class AdaptiveResult(NamedTuple):
    value: float
    nodes: int
    est_error: float


def adaptive_integrate_row(ds, exponent_sign: float, g: Callable[[np.ndarray], np.ndarray],
                           tols) -> list:
    """``integrate_weighted`` for each d of ``ds`` to its tolerance in ``tols``.

    Doubles the node count from START_NODES until two successive estimates
    of a distance agree within its tolerance; each round evaluates every
    unconverged distance on one rule.  Raises QuadratureConvergenceError
    for the first distance, in row order, left unconverged at MAX_NODES.
    A bad limit, exponent or tolerance raises DomainError before ``g`` runs.
    """
    for tol in tols:
        if not tol > 0:
            raise DomainError(f"tolerance must be positive, got {tol}")
    results, count = [None] * len(ds), START_NODES
    est = dict(enumerate(integrate_weighted(ds, exponent_sign, g, gauss_legendre_rule(count))))
    while est and count < MAX_NODES:
        count *= 2
        rule = gauss_legendre_rule(count)
        new = dict(zip(est, integrate_weighted([ds[i] for i in est], exponent_sign, g, rule)))
        for i, value in new.items():
            diff = abs(value - est[i])
            if diff <= tols[i]:
                results[i] = AdaptiveResult(value=value, nodes=count, est_error=diff)
        est = {i: value for i, value in new.items() if results[i] is None}
    if est:
        raise QuadratureConvergenceError(
            f"no convergence to tol={tols[min(est)]} within {MAX_NODES} nodes")
    return results
