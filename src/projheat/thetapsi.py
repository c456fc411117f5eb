"""The ladder sum the integral form runs: an S^(2c+1) zonal heat series.

For an integer c >= 1 and t > 0 the integral form of the kernel needs

    Psi_c(t, u) = sin(u) L^c theta_{c+1}(t; u),   L = -(1/sin u) d/du,

    theta_{c+1}(t; u) = sum_{l>=0} exp(-4 t (l + c/2)^2) cos((2l + c) u),

times its prefactor exp(c^2 t).  The ladder turns harmonic q = 2l + c
into q 2^(c-1) (c-1)! C_{2l}^c(cos u), and C_{2l}^c(cos u) is the zonal
harmonic of degree 2l on the unit sphere S^(2c+1), whose Laplace
eigenvalue 2l (2l + 2c) = 4 l (l + c) is exactly the exponent left once
the shift exp(c^2 t) is folded into each term:

    exp(c^2 t) Psi_c(t, u)
        = sin(u) sum_{l>=0} (2l + c) 2^(c-1) (c-1)! exp(-4 t l (l + c)) C_{2l}^c(cos u).

So ``psi_sum`` is sin(u) times the even-degree part of the zonal heat
series of S^(2c+1), the sphere that fibres over P^n(F) when
c = k(n+1) - 1.  It is assembled termwise by one rolling Gegenbauer
recurrence of order c, with no actual differentiation, so it is finite
at u = 0 and u = pi, and the folded exponents keep the large-t prefactor
from overflowing.

Truncation is controlled by an analytic tail bound: successive term
bounds shrink by a factor that is itself decreasing, so the tail is
dominated by a geometric series and summation stops as soon as that
majorant drops below the tolerance (``DEFAULT_TOL`` unless the caller
gives one); a series that would need more than ``TERM_CAP`` terms raises
TruncationCapError instead.  The theta series itself and the classical
theta-2 function are summed only by the oracles in ``verify``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, TruncationCapError
from .orthopoly import gegenbauer_step


#: absolute tail tolerance of psi_sum and of the theta oracles, unless psi_sum's caller gives one
DEFAULT_TOL = 1e-12

#: hard cap on the terms of one series, which TruncationCapError reports
TERM_CAP = 20000


def _weights_overflow(c: int, t: float) -> TruncationCapError:
    # the message names the ladder count j = c
    return TruncationCapError(f"ladder series weights overflow floating point at j={c}, t={t}")


@np.errstate(over="ignore", invalid="ignore")  # an overflowed term is refused at the end
def psi_sum(c: int, t: float, u, tol: float = DEFAULT_TOL):
    """exp(c^2 t) Psi_c(t, u) = exp(c^2 t) sin(u) L^c theta_{c+1}(t, u), vectorized over u.

    Term l is the Gegenbauer term of order c and degree 2l, so the sum is
    a single rolling order-c recurrence, two steps per term.  The tail
    bound majorizes |C_{2l}^c| by its value at the right endpoint,
    binom(2l + 2c - 1, 2c - 1), which is where the polynomial growth
    enters.

    Raises TruncationCapError when a weight or the result is not finite:
    a weight is tested before it enters the sum, and a finite weight whose
    term or partial sum overflows leaves inf or NaN in the result.
    """
    if c < 1:
        raise DomainError(f"ladder count must be >= 1, got {c}")
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    u_arr = np.asarray(u, dtype=float)
    if not t > 0:
        raise DomainError(f"diffusion time must be positive, got {t}")
    if not np.all(np.isfinite(u_arr)):
        raise DomainError("angle must be finite")
    x = np.cos(u_arr)
    lam = float(c)
    try:
        base = (2.0 ** (c - 1)) * math.factorial(c - 1)  # q-independent ladder scale
    except OverflowError:
        raise DomainError(f"ladder count must be <= 171, got {c}: "
                          "(j-1)! overflows floating point") from None
    half = 0.5 * c
    shift = float(c * c)  # the folded exp(c^2 t)

    total = np.zeros_like(u_arr)
    # rolling Gegenbauer pair (C_2l, C_{2l-1}) of order c
    c_cur, c_prev = np.ones_like(u_arr), np.zeros_like(u_arr)
    endpoint = 1.0  # binom(q + c - 1, 2c - 1) for the current l
    for l in range(TERM_CAP + 1):
        q = 2 * l + c
        w = math.exp((shift - 4.0 * (l + half) ** 2) * t) * q * base
        if not math.isfinite(w):  # the ladder scale overflowed: never let it into the sum
            raise _weights_overflow(c, t)
        total += w * c_cur

        # advance the endpoint bound to l+1 and test the geometric majorant
        endpoint *= ((q + c) * (q + c + 1)) / ((q - c + 1) * (q - c + 2))
        qn = q + 2
        b_next = math.exp((shift - 4.0 * (l + 1 + half) ** 2) * t) * qn * base * endpoint
        rho = (
            math.exp(-4.0 * t * (qn + 1))
            * ((qn + 2) / qn)
            * (((qn + c) * (qn + c + 1)) / ((qn - c + 1) * (qn - c + 2)))
        )
        if rho < 1.0:
            tail = b_next / (1.0 - rho)
            if tail <= tol:
                result = np.sin(u_arr) * total
                if not np.isfinite(result).all():
                    raise _weights_overflow(c, t)
                return float(result) if np.ndim(u) == 0 else result
            if not math.isfinite(tail):  # the ladder scale or the endpoint overflowed
                raise _weights_overflow(c, t)
        c_cur, c_prev = gegenbauer_step(2 * l + 1, lam, x, c_cur, c_prev), c_cur
        c_cur, c_prev = gegenbauer_step(2 * l + 2, lam, x, c_cur, c_prev), c_cur
    raise TruncationCapError(f"ladder series needs more than {TERM_CAP} terms at t={t}")
