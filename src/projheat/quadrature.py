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
from typing import Callable, NamedTuple

import numpy as np

from .errors import QuadratureConvergenceError
from .orthopoly import gegenbauer_step

#: most substitution nodes one call of the integrand receives
_CALL_NODES = 1 << 16

#: node counts of the doubling loop's first rule and of its last
START_NODES = 16
MAX_NODES = 4096


class QuadratureRule(NamedTuple):
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
    Results are cached and the returned arrays are read-only.  ``count``
    is a positive integer.
    """
    cached = _RULE_CACHE.get(count)
    if cached is not None:
        return cached
    k = np.arange(1, count + 1, dtype=float)
    x = np.cos(math.pi * (k - 0.25) / (count + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(count, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise QuadratureConvergenceError(f"Newton iteration stalled for count={count}")
    _, dp = _legendre_and_derivative(count, x)
    weights = 2.0 / ((1.0 - x * x) * dp * dp)
    # enforce exact symmetry about the origin
    order = np.argsort(x)
    x = x[order]
    weights = weights[order]
    x = 0.5 * (x - x[::-1])
    weights = 0.5 * (weights + weights[::-1])
    if count % 2 == 1:
        x[count // 2] = 0.0
    x.setflags(write=False)
    weights.setflags(write=False)
    rule = QuadratureRule(nodes=x, weights=weights)
    _RULE_CACHE[count] = rule
    return rule


def _cosines(ds) -> np.ndarray:
    """cos d for each lower limit d of ``ds``."""
    return np.array([math.cos(d) for d in np.asarray(ds, dtype=float).tolist()])


def _weighted_sums(cos_ds: np.ndarray, exponent_sign: float, g, rows: np.ndarray,
                   rule: QuadratureRule) -> np.ndarray:
    """The substituted rule's sums, one per (row of ``rows``, d of ``cos_ds``).

    ``g(rows, u)`` gives each row's integrand at the angles u.  Each call
    of ``g`` gets at most ``_CALL_NODES`` (row, node) pairs, but at least
    one row at one distance's nodes.  Each distance's substitution nodes
    are built once, however many calls its rows take.
    """
    phi = (rule.nodes + 1.0) * (0.25 * math.pi)
    block = max(1, _CALL_NODES // rule.count)  # rows per call
    step = max(1, block // max(1, min(rows.size, block)))  # distances per call
    sums = np.empty((rows.size, cos_ds.size))
    for lo in range(0, cos_ds.size, step):
        c = cos_ds[lo:lo + step, None]
        c_sin_phi = c * np.sin(phi)
        sin_u = np.sqrt(1.0 - c_sin_phi ** 2)
        u = np.arccos(c_sin_phi).ravel()
        weight = (c * c) * np.cos(phi) ** 2 if exponent_sign > 0 else 1.0  # 1.0 * gv is exact
        for r in range(0, rows.size, block):
            sel = rows[r:r + block]
            gv = np.asarray(g(sel, u), dtype=float).reshape(sel.shape + sin_u.shape)
            # one dot product per (row, distance): the same sums as ``rule.weights @ row``
            sums[r:r + block, lo:lo + step] = np.vecdot(weight * gv / sin_u, rule.weights)
            del gv  # not kept alive across the next call of g
    return (0.25 * math.pi) * sums


def integrate_weighted(ds, exponent_sign: float, g: Callable[[np.ndarray], np.ndarray],
                       rule: QuadratureRule) -> np.ndarray:
    """Integral of (cos^2 d - cos^2 u)^exponent_sign * g(u) over [d, pi/2], each d of ``ds``.

    Returns one float per distance.  Each d lies in [0, pi/2), and
    ``exponent_sign`` is +0.5 or -0.5.  ``g`` is evaluated at interior
    points only, for whole distances per call and at most ``_CALL_NODES``
    nodes a call.  For the -1/2 weight with d = 0 the transformed integrand
    is smooth provided g carries a sin(u) factor, which every caller in
    this package does.
    """
    cos_ds = _cosines(ds)
    return _weighted_sums(cos_ds, exponent_sign, lambda rows, u: g(u), np.arange(1), rule)[0]


class AdaptiveResult(NamedTuple):
    """A grid of doubling results, one entry per (row, distance)."""

    value: np.ndarray
    nodes: np.ndarray
    est_error: np.ndarray


def adaptive_integrate_row(ds, exponent_sign: float,
                           g: Callable[[np.ndarray, np.ndarray], np.ndarray],
                           tols, rel: float) -> AdaptiveResult:
    """``integrate_weighted`` for a grid of integrands by distances, each pair to its tolerance.

    ``tols`` has one row per integrand and one column per distance, and
    ``g(rows, u)`` gives the integrands of the indices ``rows`` at the
    angles ``u``, one row each: the integral kernel's rows are its times,
    and ``g`` a ``thetapsi.PsiSeries``.  Doubles the node count from
    START_NODES until two successive estimates of a (row, distance) pair
    agree within its tolerance or within ``rel`` times the later estimate
    (``rel`` = 0 makes the test absolute).  Each round evaluates one grid,
    the rows and the distances that still have an unconverged pair,
    building each distance's nodes once, at most ``_CALL_NODES`` (row,
    node) pairs per call of ``g``, and scatters its sums into a table of
    estimates that only the unconverged pairs read.  A pair that has
    converged keeps its entries, so each pair's entries are its last
    estimate, that rule's node count and the difference between its last
    two estimates, as if it were integrated alone.  Raises QuadratureConvergenceError for the
    first pair, in row-major order, left unconverged at MAX_NODES.  The
    limits and the exponent are as ``integrate_weighted`` takes them, and
    the tolerances positive: ``kernels.unified`` checked them.
    """
    tols = np.asarray(tols, dtype=float)
    cos_ds = _cosines(ds)
    shape, width = tols.shape, cos_ds.size
    tols = tols.ravel()
    values = np.full(tols.size, np.nan)  # no pair converges on the first round
    nodes = np.zeros(tols.size, dtype=int)
    diffs = np.zeros(tols.size)
    estimates = np.empty(shape)  # the round's sums; entries of converged pairs go unread
    todo = np.arange(tols.size)  # unconverged pairs, as flat indices in row-major order
    count = START_NODES
    while todo.size and count <= MAX_NODES:
        # the round's grid: every row and distance with an unconverged pair
        r = todo // width
        rows = np.bincount(r, minlength=shape[0]).nonzero()[0]
        cols = np.bincount(todo - r * width, minlength=width).nonzero()[0]
        sums = _weighted_sums(cos_ds[cols], exponent_sign, g, rows, gauss_legendre_rule(count))
        estimates[rows[:, None], cols] = sums
        new = estimates.ravel()[todo]
        diff = np.abs(new - values[todo])
        values[todo] = new
        done = (diff <= tols[todo]) | (diff <= rel * np.abs(new))  # NaN in round 1: never done
        nodes[todo[done]] = count
        diffs[todo[done]] = diff[done]
        todo = todo[~done]
        count *= 2
    if todo.size:
        raise QuadratureConvergenceError(
            f"no convergence to tol={float(tols[todo[0]])} within {MAX_NODES} nodes")
    return AdaptiveResult(value=values.reshape(shape), nodes=nodes.reshape(shape),
                          est_error=diffs.reshape(shape))
