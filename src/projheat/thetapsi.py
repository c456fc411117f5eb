"""Theta-type exponential cosine series and their ladder transforms.

The central object is the family

    theta_m(t; u) = sum_{l>=0} exp(-4 t (l + (m-1)/2)^2) cos((2l + m - 1) u),

for integer m >= 2 and t > 0, together with

    Psi_j(t, u) = sin(u) L^j theta_m(t, u),      L = -(1/sin u) d/du,

assembled termwise through the cosine ladder, so Psi carries no actual
differentiation and is finite at u = 0 and u = pi.  Truncation is
controlled by an analytic tail bound: successive term bounds shrink by a
factor that is itself decreasing, so the tail is dominated by a geometric
series and summation stops as soon as that majorant drops below
``DEFAULT_TOL`` (``psi_sum`` takes its own ``tol``); a series that would
need more than ``TERM_CAP`` terms raises TruncationCapError instead.

For m = 2 the series coincides with half the classical second Jacobi
theta function at purely imaginary lattice parameter;
``jacobi_theta2_reference`` sums that function independently so the
relation can be certified rather than assumed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, TruncationCapError
from .orthopoly import gegenbauer_step


#: absolute tail tolerance of every series here, unless psi_sum's caller gives one
DEFAULT_TOL = 1e-12

#: hard cap on the terms of one series, which TruncationCapError reports
TERM_CAP = 20000


def _check_series_args(m: int, t: float, u: np.ndarray) -> None:
    if m < 2:
        raise DomainError(f"series subscript must be >= 2, got {m}")
    if not t > 0:
        raise DomainError(f"diffusion time must be positive, got {t}")
    if not np.all(np.isfinite(u)):
        raise DomainError("angle must be finite")


def theta_sum(m: int, t: float, u):
    """Truncated theta_m(t; u), vectorized over u."""
    u_arr = np.asarray(u, dtype=float)
    _check_series_args(m, t, u_arr)
    half = 0.5 * (m - 1)
    total = np.zeros_like(u_arr)
    for l in range(TERM_CAP + 1):
        a = math.exp(-4.0 * (l + half) ** 2 * t)
        total += a * np.cos((2 * l + m - 1) * u_arr)
        b_next = math.exp(-4.0 * (l + 1 + half) ** 2 * t)
        rho = math.exp(-4.0 * t * (2 * l + 2 + m))
        if rho < 1.0 and b_next / (1.0 - rho) <= DEFAULT_TOL:
            return float(total) if np.ndim(u) == 0 else total
    raise TruncationCapError(f"theta series needs more than {TERM_CAP} terms at t={t}")


def _weights_overflow(j: int, t: float) -> TruncationCapError:
    return TruncationCapError(f"ladder series weights overflow floating point at j={j}, t={t}")


@np.errstate(over="ignore", invalid="ignore")  # an overflowed term is refused at the end
def psi_sum(j: int, m: int, t: float, u, tol: float = DEFAULT_TOL, exp_shift: float = 0.0):
    """sin(u) L^j theta_m(t, u), vectorized over u.

    ``exp_shift`` folds a factor exp(exp_shift * t) into every term; with
    exp_shift = (m-1)^2 the exponents become -4 t l (l + m - 1), which is
    how the kernel assembly keeps large-t prefactors from overflowing.

    Termwise the cosine ladder turns harmonic 2l+m-1 into a Gegenbauer
    term of order j and degree 2l+m-1-j, so the sum is a single rolling
    order-j recurrence.  The tail bound majorizes |C_d^j| by its value at
    the right endpoint, which is where the polynomial growth enters.

    Raises TruncationCapError when a weight or the result is not finite:
    a weight is tested before it enters the sum, and a finite weight whose
    term or partial sum overflows leaves inf or NaN in the result.
    """
    if j < 1:
        raise DomainError(f"ladder count must be >= 1, got {j}")
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    u_arr = np.asarray(u, dtype=float)
    _check_series_args(m, t, u_arr)
    x = np.cos(u_arr)
    lam = float(j)
    try:
        base = (2.0 ** (j - 1)) * math.factorial(j - 1)  # q-independent ladder scale
    except OverflowError:
        raise DomainError(f"ladder count must be <= 171, got {j}: "
                          "(j-1)! overflows floating point") from None
    half = 0.5 * (m - 1)

    total = np.zeros_like(u_arr)
    # rolling Gegenbauer pair (C_deg, C_{deg-1}) of order j
    c_cur, c_prev = np.ones_like(u_arr), np.zeros_like(u_arr)
    deg = 0
    endpoint = None  # binom(q + j - 1, 2j - 1) for the current l
    for l in range(TERM_CAP + 1):
        q = 2 * l + m - 1
        if q < j:
            continue  # ladder annihilates harmonics below its count
        target = q - j
        while deg < target:  # targets only grow, so deg ends equal to target
            deg += 1
            c_cur, c_prev = gegenbauer_step(deg, lam, x, c_cur, c_prev), c_cur
        w = math.exp((exp_shift - 4.0 * (l + half) ** 2) * t) * q * base
        if not math.isfinite(w):  # the ladder scale overflowed: never let it into the sum
            raise _weights_overflow(j, t)
        total += w * c_cur

        if endpoint is None:
            endpoint = float(math.comb(q + j - 1, 2 * j - 1))
        # advance the endpoint bound to l+1 and test the geometric majorant
        endpoint *= ((q + j) * (q + j + 1)) / ((q - j + 1) * (q - j + 2))
        qn = q + 2
        b_next = (
            math.exp((exp_shift - 4.0 * (l + 1 + half) ** 2) * t) * qn * base * endpoint
        )
        rho = (
            math.exp(-4.0 * t * (qn + 1))
            * ((qn + 2) / qn)
            * (((qn + j) * (qn + j + 1)) / ((qn - j + 1) * (qn - j + 2)))
        )
        if rho < 1.0:
            tail = b_next / (1.0 - rho)
            if tail <= tol:
                result = np.sin(u_arr) * total
                if not np.isfinite(result).all():
                    raise _weights_overflow(j, t)
                return float(result) if np.ndim(u) == 0 else result
            if not math.isfinite(tail):  # the ladder scale or the endpoint overflowed
                raise _weights_overflow(j, t)
    raise TruncationCapError(f"ladder series needs more than {TERM_CAP} terms at t={t}")


def jacobi_theta2_reference(z: float, tau_imag: float) -> float:
    """Second Jacobi theta function at purely imaginary lattice parameter.

    Sums 2 sum_{l>=0} exp(-pi tau_imag (l + 1/2)^2) cos((2l+1) pi z)
    directly; real-valued here.  Kept independent of ``theta_sum`` so the two
    summations can certify each other.
    """
    if not tau_imag > 0:
        raise DomainError(f"imaginary part of tau must be positive, got {tau_imag}")
    total = 0.0
    for l in range(TERM_CAP + 1):
        total += 2.0 * math.exp(-math.pi * tau_imag * (l + 0.5) ** 2) * math.cos(
            (2 * l + 1) * math.pi * z
        )
        b_next = 2.0 * math.exp(-math.pi * tau_imag * (l + 1.5) ** 2)
        rho = math.exp(-math.pi * tau_imag * (2 * l + 4))
        if rho < 1.0 and b_next / (1.0 - rho) <= DEFAULT_TOL:
            return total
    raise TruncationCapError(f"theta2 series needs more than {TERM_CAP} terms at tau={tau_imag}j")
