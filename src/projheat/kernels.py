"""Heat kernels on P^n(C) and P^n(H) in two independent closed forms.

With k = 1 (complex) or k = 2 (quaternionic) and c = k(n+1) - 1, the
kernel at time t and geodesic distance d is

  series form:
      E(t; d) = pi^(-kn) sum_{l>=0} (2l + c) (l + c - 1)!/(l + k - 1)!
                exp(-4 l (l + c) t) P_l^(kn-1, k-1)(cos 2d)

  integral form:
      E(t; d) = [exp(c^2 t) / (2^(kn-2) pi^(kn+1) cos(d)^(2(k-1)))]
                * integral_d^(pi/2) (cos^2 d - cos^2 u)^(k - 3/2)
                  Psi_c(t, u) du,

where Psi_c = sin(u) L^c theta_{c+1}; ``thetapsi.psi_sum`` returns
exp(c^2 t) Psi_c, the prefactor folded into the theta exponentials
(giving decay rates exp(-4 t l (l + c)) termwise), so neither factor can
overflow at large t.

The two forms share no evaluation code, which is what makes their
agreement a meaningful check: the series never integrates, and what
``series_values`` and ``_integral_kernel`` reach meets only in ``_check_args``,
``SpaceDescriptor`` (with what its construction runs) and the error
classes, as tests/test_boundaries.py pins by walking both call graphs.

Series truncation bounds |P_l| on [-1, 1] by its value at 1 and stops
when a geometric majorant of the tail drops below the tolerance; the
integral form uses doubling Gauss-Legendre quadrature on the
endpoint-regularized substitution from the quadrature module.

Both methods check their arguments once, in ``_check_args``: building the
``geometry.SpaceDescriptor`` decides whether (k, n) is accepted, and the
time, the distances and the tolerance are checked here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationCapError
from .geometry import SpaceDescriptor
from .orthopoly import jacobi_step
from .quadrature import adaptive_integrate_row
from .thetapsi import DEFAULT_TOL, psi_sum

_HALF_PI = 0.5 * math.pi

#: below this diffusion time the CLI refuses to evaluate
MIN_TIME = 1e-4

#: hard cap on spectral series terms; ~320 suffice at t = MIN_TIME
SERIES_CAP = 2000

METHODS = ("series", "integral")


@dataclass(frozen=True)
class KernelValue:
    """Kernel value with the work done and an error estimate.

    A scalar distance gives a float, an int and a float; a row of
    distances gives one array of each, with one entry per distance.
    Row records do not hash, and ``==`` between two of them is not
    defined (it raises for rows of two or more distances, as ``bool`` of
    an array does); compare their arrays instead.
    """

    value: float | np.ndarray
    terms_or_nodes: int | np.ndarray
    est_error: float | np.ndarray


def _check_args(k: int, n: int, t: float, d, tol: float) -> None:
    SpaceDescriptor(n=n, k=k)  # validates the index, its range and the field selector
    if not 0.0 < t < math.inf:
        raise DomainError(f"diffusion time must be positive and finite, got {t}")
    d_arr = np.asarray(d, dtype=float)
    if d_arr.ndim > 1:
        raise DomainError(f"distance must be a scalar or a row, got {d_arr.ndim} dimensions")
    outside = ~((d_arr >= 0.0) & (d_arr < _HALF_PI))
    if outside.any():
        raise DomainError(f"distance must lie in [0, pi/2), got {d_arr[outside].flat[0]}")
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol}")


def _weights_overflow(k: int, n: int, t: float) -> TruncationCapError:
    return TruncationCapError(f"spectral series weights overflow floating point "
                              f"at k={k}, n={n}, t={t}")


@np.errstate(over="ignore", invalid="ignore")  # an overflowed term is refused at the end
def series_values(k: int, n: int, t: float, d, tol: float = 1e-10):
    """Spectral-series kernel over an array of distances.

    Returns (values, terms_used, tail_bound).  The truncation index is
    shared across the array because the term bound is uniform in d.

    Raises TruncationCapError when a weight or a value is not finite: a
    weight is tested before it enters the sum, and a finite weight whose
    term or partial sum overflows leaves inf or NaN in the values.
    """
    _check_args(k, n, t, d, tol)
    x = np.cos(2.0 * np.asarray(d, dtype=float))
    alpha = float(k * n - 1)
    beta = float(k - 1)
    c = k * (n + 1) - 1
    inv_pi = math.pi ** (-(k * n))
    ratio = math.factorial(c - 1) / math.factorial(k - 1)  # (l+c-1)!/(l+k-1)!
    endpoint = 1.0  # binom(l + alpha, l)
    p_prev = np.zeros_like(x)
    p_cur = np.ones_like(x)
    total = np.zeros_like(x)
    for l in range(SERIES_CAP + 1):
        w = (2 * l + c) * ratio * math.exp(-4.0 * l * (l + c) * t) * inv_pi
        if not math.isfinite(w):  # (l+c-1)!/(l+k-1)! overflowed: never let it into the sum
            raise _weights_overflow(k, n, t)
        total += w * p_cur
        # coefficient trackers for l+1
        ratio *= (l + c) / (l + k)
        endpoint *= (l + 1 + alpha) / (l + 1)
        b_next = (
            (2 * (l + 1) + c) * ratio * endpoint
            * math.exp(-4.0 * (l + 1) * (l + 1 + c) * t) * inv_pi
        )
        # decreasing bound on the ratio of successive term bounds
        rho = (
            math.exp(-4.0 * t * (2 * l + 3 + c))
            * ((2 * l + 4 + c) / (2 * l + 2 + c))
            * ((l + 1 + c) / (l + 1 + k))
            * ((l + 2 + alpha) / (l + 2))
        )
        if rho < 1.0:
            tail = b_next / (1.0 - rho)
            if tail <= tol:
                if not np.isfinite(total).all():
                    raise _weights_overflow(k, n, t)
                return total, l + 1, tail
            if not math.isfinite(tail):  # (l+c-1)!/(l+k-1)! or the endpoint overflowed
                raise _weights_overflow(k, n, t)
        p_cur, p_prev = jacobi_step(l + 1, alpha, beta, x, p_cur, p_prev), p_cur
    raise TruncationCapError(
        f"spectral series needs more than {SERIES_CAP} terms at t={t} (t too small)"
    )


def _integral_kernel(k: int, n: int, t: float, ds: np.ndarray, tol: float) -> KernelValue:
    c = k * (n + 1) - 1  # the number of ladder applications
    cnk = 1.0 / (2.0 ** (k * n - 2) * math.pi ** (k * n + 1))
    outers = np.array([cnk / math.cos(d) ** (2 * (k - 1)) for d in ds.tolist()])
    theta_tol = DEFAULT_TOL if tol >= 10.0 * DEFAULT_TOL else 0.1 * tol
    g = functools.partial(psi_sum, c, t, tol=theta_tol)  # exp(c^2 t) folded in, termwise
    row = adaptive_integrate_row(ds, 0.5 if k == 2 else -0.5, g, 0.5 * tol / outers)
    # termwise theta truncation contributes at most cnk * pi/2 * theta_tol
    return KernelValue(value=outers * row.value, terms_or_nodes=row.nodes,
                       est_error=outers * row.est_error + cnk * _HALF_PI * theta_tol)


def unified(n: int, k: int, t: float, d, tol: float = 1e-10,
            method: str = "series") -> KernelValue:
    """Kernel on P^n(F) at time t, by the selected representation.

    A scalar distance ``d`` gives one KernelValue of scalars.  A sequence
    of distances gives one KernelValue of arrays, the row record, whose
    entries equal the scalar calls: the series evaluates the whole row in
    one ``series_values`` call (its truncation index and tail bound do not
    depend on d, so every entry of ``terms_or_nodes`` and ``est_error`` is
    the same), the integral runs one doubling loop over the row, with one
    ``psi_sum`` call per round for every distance not yet converged.

    Raises DomainError for an index, field, time, distance (anywhere in
    the row), tolerance or method outside its domain, whichever method is
    chosen.
    """
    ds = np.atleast_1d(np.asarray(d, dtype=float))
    if method == "series":
        values, terms, tail = series_values(k, n, t, ds, tol)
        row = KernelValue(value=values, terms_or_nodes=np.full(ds.shape, terms),
                          est_error=np.full(ds.shape, tail))
    elif method == "integral":
        _check_args(k, n, t, ds, tol)
        row = _integral_kernel(k, n, t, ds, tol)
    else:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    if np.ndim(d):
        return row
    return KernelValue(value=float(row.value[0]), terms_or_nodes=int(row.terms_or_nodes[0]),
                       est_error=float(row.est_error[0]))

