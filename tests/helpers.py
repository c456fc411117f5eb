"""Independent oracles shared by the tests.

Everything here is written from scratch against the defining
series/operators and never calls the package's own evaluation paths.  The
exact Jacobi series and the finite-difference ladder are the self-test's
oracles in ``projheat.verify``, re-exported under the tests' names; they
share nothing with the production recurrences either.  The reference
doubling loop and kernel below run one distance at a time over
``integrate_weighted``: they pin the row loop's batching, chunking and
bookkeeping, not the substitution arithmetic they share with it.
"""

import math
from fractions import Fraction

from projheat.errors import QuadratureConvergenceError
from projheat.kernels import KernelValue
from projheat.quadrature import MAX_NODES, START_NODES, gauss_legendre_rule, integrate_weighted
from projheat.thetapsi import DEFAULT_TOL, psi_sum
from projheat.verify import _exact_jacobi as jacobi_series_exact, _ladder_fd as ladder_fd


def gegenbauer_series_exact(l, lam, x):
    """Gegenbauer polynomial by its explicit terminating sum, exact rational."""
    lam_f = Fraction(lam)
    x_f = Fraction(x)
    total = Fraction(0)
    for i in range(l // 2 + 1):
        term = Fraction(1)
        for j in range(l - i):
            term *= lam_f + j  # (lam)_(l-i)
        term *= Fraction(-1) ** i * (2 * x_f) ** (l - 2 * i)
        total += term / (math.factorial(i) * math.factorial(l - 2 * i))
    return float(total)


def theta_brute(m, t, u, terms=1000):
    """Direct summation of the theta-type series, no tail bound."""
    return sum(
        math.exp(-4.0 * t * (l + 0.5 * (m - 1)) ** 2) * math.cos((2 * l + m - 1) * u)
        for l in range(terms)
    )


def theta2_brute(z, tau_imag, terms=1000):
    """Direct summation of the classical second theta function, imaginary tau."""
    return 2.0 * sum(
        math.exp(-math.pi * tau_imag * (l + 0.5) ** 2) * math.cos((2 * l + 1) * math.pi * z)
        for l in range(terms)
    )


def s4_heat_kernel(t, d, terms=200):
    """Heat kernel on the round 4-sphere of radius 1/2, spectral sum.

    Uses the order-3/2 ultraspherical recurrence directly; shares no code
    with the package.  Distances d in [0, pi/2] correspond to angle 2d on
    the unit sphere; eigenvalues scale by 4 and the density by 16.
    """
    x = math.cos(2.0 * d)
    total = 0.0
    c_prev, c_cur = 1.0, 3.0 * x
    for l in range(terms):
        if l == 0:
            cl = 1.0
        elif l == 1:
            cl = c_cur
        else:
            c_cur, c_prev = (2.0 * (l + 0.5) * x * c_cur - (l + 1.0) * c_prev) / l, c_cur
            cl = c_cur
        total += (2 * l + 3) * cl * math.exp(-4.0 * l * (l + 3) * t)
    return 2.0 * total / math.pi**2


def adaptive_reference(d, exponent_sign, g, tol):
    """Doubling Gauss-Legendre for one distance alone: (value, nodes, est_error)."""
    count = START_NODES
    [est] = integrate_weighted([d], exponent_sign, g, gauss_legendre_rule(count))
    while count < MAX_NODES:
        count *= 2
        [new] = integrate_weighted([d], exponent_sign, g, gauss_legendre_rule(count))
        if abs(new - est) <= tol:
            return new, count, abs(new - est)
        est = new
    raise QuadratureConvergenceError(f"no convergence to tol={tol} within {MAX_NODES} nodes")


def integral_kernel_reference(n, k, t, d, tol):
    """The integral-form kernel at one distance, over ``adaptive_reference``."""
    m = k * (n + 1)
    cnk = 1.0 / (2.0 ** (k * n - 2) * math.pi ** (k * n + 1))
    outer = cnk / math.cos(d) ** (2 * (k - 1))
    theta_tol = DEFAULT_TOL if tol >= 10.0 * DEFAULT_TOL else 0.1 * tol
    value, nodes, err = adaptive_reference(
        d, 0.5 if k == 2 else -0.5,
        lambda u: psi_sum(m - 1, m, t, u, theta_tol, exp_shift=float((m - 1) ** 2)),
        0.5 * tol / outer,
    )
    return KernelValue(value=outer * value, terms_or_nodes=nodes,
                       est_error=outer * err + cnk * 0.5 * math.pi * theta_tol)
