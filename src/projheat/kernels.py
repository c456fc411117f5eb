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

where Psi_c = sin(u) L^c theta_{c+1}; ``thetapsi.PsiSeries`` returns
exp(c^2 t) Psi_c, the prefactor folded into the theta exponentials
(giving decay rates exp(-4 t l (l + c)) termwise), so neither factor can
overflow at large t.

The two forms share no evaluation code, which is what makes their
agreement a meaningful check: the series never integrates, and what
``series_values`` and ``_integral_kernel`` reach meets only in
``SpaceDescriptor`` (with what its construction runs) and the error
classes, as tests/test_boundaries.py pins by walking both call graphs.

Series truncation bounds |P_l| on [-1, 1] by its value at 1 and stops
when a geometric majorant of the tail drops below the tolerance; its
error bound adds to that tail a roundoff floor that the summing loop
accumulates per distance.  The integral form uses doubling
Gauss-Legendre quadrature on the endpoint-regularized substitution from
the quadrature module, and each (t, d) stops once two successive
estimates agree within half the tolerance, absolutely or relative to
the estimate.

``unified`` checks every argument once, in ``_check_args``, before
either method runs; nothing beneath it or in the CLI checks them again.
Building the ``geometry.SpaceDescriptor`` decides whether (k, n) is
accepted, and the times (finite, from ``MIN_TIME`` on), the distances and
the tolerance are checked here.  The space supplies the series' alpha,
beta, c and decay rates 4 l (l + c), as the suite certifies them on the
space, and the integral's c and weight exponent k - 3/2.

``unified`` takes a column of times by a row of distances.  The series
sums each time's row on its own.  The integral evaluates the grid in one
pass: time enters Psi_c only through the scalar weights
exp(-4 l (l + c) t), so each time's weights are summed once, to its own
truncation index, into one row of a weight table, and the t-independent
work (the substitution nodes and the Gegenbauer recurrence over them)
runs once per doubling round for all the times; the weights are the same
scalar ``math.exp`` expressions a single time uses, so every entry is
bit for bit the single-time one.  A failing grid raises the first error
its evaluation meets; which time fails first is the CLI's question, and
it answers it row by row.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, TruncationCapError
from .geometry import SpaceDescriptor
from .orthopoly import jacobi_step
from .quadrature import adaptive_integrate_row
from .thetapsi import PsiSeries

_HALF_PI = 0.5 * math.pi

#: smallest diffusion time that ``unified`` accepts, the floor of the domain
MIN_TIME = 1e-4
#: a termination guard, as ``thetapsi.TERM_CAP`` is: no default-tol call in the domain reaches
#: either (at t = MIN_TIME the series takes up to 1252 terms and ``PsiSeries`` 1336)
SERIES_CAP = 2000

METHODS = ("series", "integral")

#: the unit roundoff u = eps/2 of a float, the unit of the series' roundoff floor
UNIT_ROUNDOFF = 2.0 ** -53


class KernelValue(NamedTuple):
    """Kernel value with the work done and an error estimate.

    A scalar time and distance give a float, an int and a float; otherwise
    each is an array shaped like the times followed by the distances, with
    one entry per (t, d).  The record is a NamedTuple: it unpacks into its
    three fields, which only this class lists.  Array records do not hash,
    and ``==`` between two of them is not defined (it raises for two or
    more entries, as ``bool`` of an array does); compare their arrays
    instead.
    """

    value: float | np.ndarray
    terms_or_nodes: int | np.ndarray
    est_error: float | np.ndarray


def _check_args(k: int, n: int, ts, d, tol: float) -> SpaceDescriptor:
    space = SpaceDescriptor(n, k)  # validates the index, its range and the field selector
    for t in ts:
        if not MIN_TIME <= t < math.inf:
            raise DomainError(f"diffusion time out of range: must be finite and >= {MIN_TIME}, "
                              f"got {t}")
    d_arr = np.asarray(d, dtype=float)
    if d_arr.ndim > 1:
        raise DomainError(f"distance must be a scalar or a row, got {d_arr.ndim} dimensions")
    inside = (d_arr >= 0.0) & (d_arr < _HALF_PI)
    if not inside.all():
        raise DomainError(f"distance must lie in [0, pi/2), got {d_arr[~inside].flat[0]}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    return space


def _weights_overflow(k: int, n: int, t: float) -> TruncationCapError:
    return TruncationCapError(f"spectral series weights overflow floating point "
                              f"at k={k}, n={n}, t={t}")


@np.errstate(over="ignore", invalid="ignore")  # an overflowed term is refused at the end
def series_values(k: int, n: int, t: float, d, tol: float):
    """Spectral-series kernel at the one time t over a distance or an array of distances.

    Returns (values, terms_used, bounds), the values and their error
    bounds shaped like d.  The truncation index is shared across the
    array because the term bound is uniform in d; each bound is that tail
    bound plus the distance's own roundoff floor (see below).

    Trusts t, d and tol as ``unified`` checked them; the space checks
    (k, n).  Raises TruncationCapError when a weight or a value is not
    finite: a weight is tested before it enters the sum, and a finite
    weight whose term or partial sum overflows leaves inf or NaN in the values.
    """
    d_arr = np.asarray(d, dtype=float)
    space = SpaceDescriptor(n, k)
    x = np.cos(2.0 * d_arr)
    alpha = float(space.jacobi_alpha)
    beta = float(space.jacobi_beta)
    c = space.spectral_offset
    inv_pi = math.pi ** (-(k * n))
    ratio = math.factorial(c - 1) / math.factorial(k - 1)  # (l+c-1)!/(l+k-1)!
    endpoint = 1.0  # binom(l + alpha, l)
    eigenvalue = space.eigenvalue
    rate = 0.0  # lambda_l t, and lambda_0 = 0
    decay = 1.0  # exp(lambda_l t)
    p_cur, p_prev = 1.0, 0.0  # (P_0, P_-1), broadcast over the distances
    total = np.zeros_like(x)
    # The roundoff floor is a running error bound in the sense of Higham (Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., chapter 4 and section 5.1), accumulated in
    # units of u = eps/2 from the same w and p_cur the value uses.  Term l of the sum is
    # fl(w_l p_l), and to first order its relative error counts these roundings:
    #   k n + 2     inv_pi: math.pi is within u of pi, raised to the power kn, and pow's ulp;
    #   1 + 2 l     ratio: its first quotient, then a quotient and a product per degree;
    #   2 + |rate|  decay: the product lambda_l t, an absolute |rate| u in the exponent,
    #               and exp's ulp;
    #   3 + 1       the three products that form w and the product w p;
    #   5 l         P_l: the longest chain of roundings in one ``jacobi_step`` is five.
    # The recurrence is stable for these weights (R. Barrio, J. Comput. Appl. Math. 138,
    # 2002, bounds its forward error by the local roundings carried along its own
    # solutions), so each step's five roundings stay on the scale of the polynomials; we
    # take |P_l(x)| for that scale, which is first order and not a bound near a zero of
    # one P_l, where the other terms carry the sum.  The additions add u |partial sum|
    # each.  So the floor is u sum_l ((k n + 9 + 7 l + |rate_l|) w_l |P_l| + |s_l|).
    # Not counted: the one rounding of x = cos 2d, which moves the value by about
    # u |x dE/dx|.
    floor = np.zeros_like(x)
    fixed = k * n + 9
    for l in range(SERIES_CAP + 1):
        w = (2 * l + c) * ratio * decay * inv_pi
        if not math.isfinite(w):  # (l+c-1)!/(l+k-1)! overflowed: never let it into the sum
            raise _weights_overflow(k, n, t)
        total += w * p_cur
        floor += ((fixed + 7 * l - rate) * w) * np.abs(p_cur) + np.abs(total)
        # coefficient trackers for l+1
        ratio *= (l + c) / (l + k)
        endpoint *= (l + 1 + alpha) / (l + 1)
        rate = eigenvalue(l + 1) * t
        decay = math.exp(rate)
        b_next = (2 * (l + 1) + c) * ratio * endpoint * decay * inv_pi
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
                return total, l + 1, tail + UNIT_ROUNDOFF * floor
            if not math.isfinite(tail):  # (l+c-1)!/(l+k-1)! or the endpoint overflowed
                raise _weights_overflow(k, n, t)
        p_cur, p_prev = jacobi_step(l + 1, alpha, beta, x, p_cur, p_prev), p_cur
    raise TruncationCapError(
        f"spectral series needs more than {SERIES_CAP} terms at t={t} (t too small)"
    )


def _series_kernel(space: SpaceDescriptor, ts: np.ndarray, ds: np.ndarray,
                   tol: float) -> KernelValue:
    values, bounds = np.empty((ts.size, ds.size)), np.empty((ts.size, ds.size))
    terms = np.empty((ts.size, ds.size), dtype=int)
    for i, t in enumerate(ts.tolist()):
        values[i], terms[i], bounds[i] = series_values(space.k, space.n, t, ds, tol)
    return KernelValue(value=values, terms_or_nodes=terms, est_error=bounds)


def _integral_kernel(space: SpaceDescriptor, ts: np.ndarray, ds: np.ndarray,
                     tol: float) -> KernelValue:
    k, n, c = space.k, space.n, space.spectral_offset  # c: the number of ladder applications
    cnk = 1.0 / (2.0 ** (k * n - 2) * math.pi ** (k * n + 1))
    outers = np.array([cnk / math.cos(d) ** (2 * (k - 1)) for d in ds.tolist()])
    theta_tol = min(1e-12, 0.1 * tol)  # the theta tail's share: a tenth of tol, at most 1e-12
    psi = PsiSeries(c, ts, theta_tol)  # exp(c^2 t) folded in, termwise
    grid = adaptive_integrate_row(ds, k - 1.5, psi,
                                  (0.5 * tol / outers)[None].repeat(ts.size, axis=0), 0.5 * tol)
    # termwise theta truncation contributes at most cnk * pi/2 * theta_tol
    return KernelValue(value=outers * grid.value, terms_or_nodes=grid.nodes,
                       est_error=outers * grid.est_error + cnk * _HALF_PI * theta_tol)


def unified(n: int, k: int, t, d, tol: float = 1e-10, method: str = "series") -> KernelValue:
    """Kernel on P^n(F) at time t and distance d, by the selected representation.

    Scalars give one KernelValue of scalars.  A sequence of times, of
    distances or of both gives one KernelValue of arrays shaped like the
    times followed by the distances: ``unified(1, 2, [0.1, 0.5], [0.0,
    0.4, 0.8])`` gives 2 x 3 arrays, and a scalar time the row record.
    Each entry is bit for bit its scalar call's.  The series evaluates each
    time's row in one ``series_values`` call (its truncation index does
    not depend on d, so ``terms_or_nodes`` is constant along a row, and
    ``est_error`` is each distance's tail bound plus roundoff floor); the
    integral is one pass over the grid (see the module docstring).

    Raises DomainError for an index, field, time, distance (anywhere in
    the grid), tolerance or method outside its domain, whichever method
    is chosen and however many times there are, before either method
    runs.  A grid that fails raises the first TruncationCapError or
    QuadratureConvergenceError its evaluation meets, in its own order:
    that may be a later time's error, or one the integral meets at a
    (t, d) pair that the time alone would not evaluate again.  Evaluate
    time by time to learn which time fails first, as the CLI does.
    """
    t_arr, d_arr = np.asarray(t, dtype=float), np.asarray(d, dtype=float)
    if method not in METHODS:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    if t_arr.ndim > 1:
        raise DomainError(f"diffusion time must be a scalar or a column, "
                          f"got {t_arr.ndim} dimensions")
    ts = t_arr if t_arr.ndim else t_arr[None]  # a scalar is a column of one
    ds = d_arr if d_arr.ndim else d_arr[None]
    space = _check_args(k, n, ts.tolist(), ds, tol)  # every argument, before either method runs
    grid = (_series_kernel if method == "series" else _integral_kernel)(space, ts, ds, tol)
    shape = t_arr.shape + d_arr.shape
    return KernelValue._make(a.reshape(shape) if shape else a[0, 0].item() for a in grid)
