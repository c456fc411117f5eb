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
from .orthopoly import gegenbauer_step

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
    p, p_prev = np.ones_like(x), np.zeros_like(x)
    for k in range(1, n + 1):  # P_k = C_k^(1/2)
        p, p_prev = gegenbauer_step(k, 0.5, x, p, p_prev), p
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
                       rule: QuadratureRule) -> np.ndarray:
    """Integral of (cos^2 d - cos^2 u)^exponent_sign * g(u) over [d, pi/2], each d of ``ds``.

    Returns one float per distance.  ``exponent_sign`` is +0.5 or -0.5.
    ``g`` is evaluated at interior points only, for whole distances per
    call and at most ``_CALL_NODES`` nodes a call.  For the -1/2 weight
    with d = 0 the transformed integrand is smooth provided g carries a
    sin(u) factor, which every caller in this package does.
    """
    ds = np.asarray(ds, dtype=float).tolist()
    for d in ds:
        if not (0.0 <= d < _HALF_PI):
            raise DomainError(f"lower limit must lie in [0, pi/2), got {d}")
    if exponent_sign not in (0.5, -0.5):
        raise DomainError(f"weight exponent must be +0.5 or -0.5, got {exponent_sign}")
    cos_ds = np.array([math.cos(d) for d in ds])
    phi = (rule.nodes + 1.0) * (0.25 * math.pi)
    step = max(1, _CALL_NODES // rule.count)
    sums = np.empty(cos_ds.size)
    for lo in range(0, cos_ds.size, step):
        c = cos_ds[lo:lo + step, None]
        c_sin_phi = c * np.sin(phi)
        sin_u = np.sqrt(1.0 - c_sin_phi ** 2)
        gv = np.asarray(g(np.arccos(c_sin_phi).ravel()), dtype=float).reshape(sin_u.shape)
        weight = (c * c) * np.cos(phi) ** 2 if exponent_sign > 0 else 1.0  # 1.0 * gv is exact
        # one dot product per distance: the same sums as ``rule.weights @ row``
        sums[lo:lo + step] = np.vecdot(weight * gv / sin_u, rule.weights)
    return (0.25 * math.pi) * sums


class AdaptiveResult(NamedTuple):
    """A row of doubling results, one entry per distance."""

    value: np.ndarray
    nodes: np.ndarray
    est_error: np.ndarray


def adaptive_integrate_row(ds, exponent_sign: float, g: Callable[[np.ndarray], np.ndarray],
                           tols) -> AdaptiveResult:
    """``integrate_weighted`` for each d of ``ds`` to its tolerance in ``tols``.

    Doubles the node count from START_NODES until two successive estimates
    of a distance agree within its tolerance; each round evaluates every
    unconverged distance on one rule.  Each distance's entries are its
    last estimate, that rule's node count and the difference between its
    last two estimates.  Raises QuadratureConvergenceError for the first
    distance, in row order, left unconverged at MAX_NODES.  A bad limit,
    exponent or tolerance raises DomainError before ``g`` runs.
    """
    ds, tols = np.asarray(ds, dtype=float), np.asarray(tols, dtype=float)
    bad = ~(tols > 0)
    if bad.any():
        raise DomainError(f"tolerance must be positive, got {float(tols[bad][0])}")
    count = START_NODES
    values = integrate_weighted(ds, exponent_sign, g, gauss_legendre_rule(count))
    nodes = np.zeros(ds.size, dtype=int)
    diffs = np.zeros(ds.size)
    todo = np.arange(ds.size)  # unconverged distances, in row order
    while todo.size and count < MAX_NODES:
        count *= 2
        new = integrate_weighted(ds[todo], exponent_sign, g, gauss_legendre_rule(count))
        diff = np.abs(new - values[todo])
        values[todo] = new
        done = diff <= tols[todo]
        nodes[todo[done]] = count
        diffs[todo[done]] = diff[done]
        todo = todo[~done]
    if todo.size:
        raise QuadratureConvergenceError(
            f"no convergence to tol={float(tols[todo[0]])} within {MAX_NODES} nodes")
    return AdaptiveResult(value=values, nodes=nodes, est_error=diffs)
