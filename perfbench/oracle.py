"""Independent high-precision reference for the projheat heat kernel.

Sums the Jacobi spectral series

    E(t; d) = pi^(-kn) sum_{l>=0} (2l + c) (l + c - 1)!/(l + k - 1)!
              exp(-4 l (l + c) t) P_l^(kn-1, k-1)(cos 2d),   c = k(n+1) - 1,

in mpmath, with the Jacobi polynomials from ``mpmath.jacobi``.  Nothing
here imports projheat: the reference shares no code with the program it
checks.

Off the diagonal the terms are of order one while the sum is near
exp(-d^2 / 4t), so the working precision is raised by d^2 / (4 t ln 10)
digits to absorb the cancellation, plus a fixed margin.  Summation stops
once the endpoint bound |P_l| <= P_l(1) = binom(l + kn - 1, l) on a term is
below the working precision relative to the partial sum and the ratio of
successive bounds is at most 1/2.  Every factor of that ratio decreases in
l, so all later ratios are at most 1/2 too and the tail is smaller than
the last bound.
"""

from __future__ import annotations

import math

import mpmath

#: digits carried beyond those lost to cancellation
MARGIN_DIGITS = 30


def heat_kernel(k: int, n: int, t: float, d: float) -> float:
    """E(t; d) on P^n(C) (k = 1) or P^n(H) (k = 2), correctly rounded to a float."""
    if k not in (1, 2) or n < 1 or not t > 0 or not 0.0 <= d < 0.5 * math.pi:
        raise ValueError(f"outside the kernel's domain: k={k} n={n} t={t} d={d}")
    dps = int(d * d / (4.0 * t * math.log(10.0))) + MARGIN_DIGITS
    alpha, beta, c = k * n - 1, k - 1, k * (n + 1) - 1
    with mpmath.workdps(dps):
        tm = mpmath.mpf(t)
        x = mpmath.cos(2 * mpmath.mpf(d))
        eps = mpmath.mpf(10) ** (-dps)
        total = mpmath.mpf(0)
        l = 0
        while True:
            weight = (
                (2 * l + c)
                * mpmath.factorial(l + c - 1) / mpmath.factorial(l + k - 1)
                * mpmath.exp(-4 * l * (l + c) * tm)
            )
            total += weight * mpmath.jacobi(l, alpha, beta, x)
            bound = weight * mpmath.binomial(l + alpha, l)
            rho = (
                math.exp(-4.0 * t * (2 * l + 1 + c))
                * (2 * l + 2 + c) / (2 * l + c)
                * (l + c) / (l + k)
                * (l + 1 + alpha) / (l + 1)
            )
            if rho <= 0.5 and bound <= eps * abs(total):
                break
            l += 1
        return float(total * mpmath.pi ** (-(k * n)))
