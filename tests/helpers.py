"""Independent oracles shared by the tests.

Everything here is written from scratch against the defining
series/operators and never calls the package's own evaluation paths.  The
exact Jacobi series and the finite-difference ladder are the self-test's
oracles in ``projheat.verify``, re-exported under the tests' names; they
share nothing with the production recurrences either.  The same Jacobi
series in ``Fraction`` arithmetic is kept here as the reference that the
self-test's integer form is held to, and the finite-difference ladder at
one point with a scalar ``f`` as the reference its row form is held to.
The reference doubling loop and kernel below run one distance
at a time over ``integrate_weighted``: they pin the row loop's batching,
chunking and bookkeeping, not the substitution arithmetic they share
with it.  Earlier forms of production arithmetic are kept as the
bit-identity references of their replacements: the Legendre recurrence that
Gauss-Legendre rules ran before they took the Gegenbauer step, the
manifold volume as one float quotient (which overflows at the top of the
accepted n range), the stationary value before the space owned its scaled
factorial, and the general ladder sum ``psi_sum_reference`` before it was
cut down to the one case the integral form runs (it steps the package's
own Gegenbauer recurrence, as that sum did).
"""

import math
from fractions import Fraction

import numpy as np

from projheat.errors import DomainError, QuadratureConvergenceError, TruncationCapError
from projheat.kernels import KernelValue
from projheat.orthopoly import gegenbauer_step
from projheat.quadrature import MAX_NODES, START_NODES, gauss_legendre_rule, integrate_weighted
from projheat.thetapsi import TERM_CAP, PsiSeries
from projheat.verify import _exact_jacobi as jacobi_series_exact, _ladder_fd as ladder_fd


def jacobi_series_fraction(l, alpha, beta, x):
    """Jacobi polynomial by its terminating series in exact rational arithmetic.

    Floats convert to Fractions exactly, so this is an exact evaluation of
    the polynomial at the given binary-rational point.
    """
    a = Fraction(alpha)
    b = Fraction(beta)
    z = (1 - Fraction(x)) / 2
    total = Fraction(0)
    for s in range(l + 1):
        term = Fraction(1)
        for i in range(s):
            term *= l + a + b + 1 + i
        for i in range(l - s):
            term *= a + s + 1 + i
        term *= (-z) ** s
        total += term / (math.factorial(s) * math.factorial(l - s))
    return float(total)


def ladder_fd_point(f, u0, m):
    """The finite-difference ladder at the single point u0, f called once per stencil point."""
    h = 1e-3 * (2.0 ** max(0, m - 2))

    def once(step):
        us = u0 + step * np.arange(-m, m + 1, dtype=float)
        vals = np.array([f(v) for v in us], dtype=float)
        for _ in range(m):
            vals = -(vals[2:] - vals[:-2]) / (2.0 * step * np.sin(us[1:-1]))
            us = us[1:-1]
        return float(vals[0])

    return (4.0 * once(0.5 * h) - once(h)) / 3.0


def legendre_and_derivative_reference(n, x):
    """P_n and P_n' at x by Legendre's own three-term recurrence, n >= 2."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p, p_prev = ((2.0 * k - 1.0) * x * p - (k - 1.0) * p_prev) / k, p
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def manifold_volume_reference(space):
    """(k-1)! pi^(kn) / c! as one float quotient; OverflowError once c! exceeds a float."""
    c = space.spectral_offset
    return math.factorial(space.k - 1) * math.pi ** (space.k * space.n) / math.factorial(c)


def stationary_value_reference(space):
    """c!/(k-1)! / pi^(kn), with c!/(k-1)! divided down by 2^shift to fit a float first."""
    whole = math.factorial(space.spectral_offset) // math.factorial(space.k - 1)
    shift = max(0, whole.bit_length() - 1000)
    return math.ldexp(whole / (1 << shift) / math.pi ** (space.k * space.n), shift)


@np.errstate(over="ignore", invalid="ignore")
def psi_sum_reference(j, m, t, u, tol=1e-12, exp_shift=0.0):
    """sin(u) L^j theta_m(t, u) exp(exp_shift t), the general ladder sum, vectorized over u.

    Any subscript m >= 2 and any shift: harmonics below the ladder count
    are skipped, the Gegenbauer degree catches up to each term's in a
    loop, and the endpoint bound starts from its binomial.  Raises as the
    general form always did.
    """
    if j < 1:
        raise DomainError(f"ladder count must be >= 1, got {j}")
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    u_arr = np.asarray(u, dtype=float)
    if m < 2:
        raise DomainError(f"series subscript must be >= 2, got {m}")
    if not t > 0:
        raise DomainError(f"diffusion time must be positive, got {t}")
    if not np.all(np.isfinite(u_arr)):
        raise DomainError("angle must be finite")
    overflow = TruncationCapError(f"ladder series weights overflow floating point at j={j}, t={t}")
    x = np.cos(u_arr)
    lam = float(j)
    try:
        base = (2.0 ** (j - 1)) * math.factorial(j - 1)
    except OverflowError:
        raise DomainError(f"ladder count must be <= 171, got {j}: "
                          "(j-1)! overflows floating point") from None
    half = 0.5 * (m - 1)
    total = np.zeros_like(u_arr)
    c_cur, c_prev = np.ones_like(u_arr), np.zeros_like(u_arr)
    deg = 0
    endpoint = None
    for l in range(TERM_CAP + 1):
        q = 2 * l + m - 1
        if q < j:
            continue
        while deg < q - j:
            deg += 1
            c_cur, c_prev = gegenbauer_step(deg, lam, x, c_cur, c_prev), c_cur
        w = math.exp((exp_shift - 4.0 * (l + half) ** 2) * t) * q * base
        if not math.isfinite(w):
            raise overflow
        total += w * c_cur
        if endpoint is None:
            endpoint = float(math.comb(q + j - 1, 2 * j - 1))
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
                    raise overflow
                return float(result) if np.ndim(u) == 0 else result
            if not math.isfinite(tail):
                raise overflow
    raise TruncationCapError(f"ladder series needs more than {TERM_CAP} terms at t={t}")


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


def adaptive_reference(d, exponent_sign, g, tol, rel=0.0):
    """Doubling Gauss-Legendre for one distance alone: (value, nodes, est_error).

    Stops when two successive estimates differ by at most ``tol``, or by
    at most ``rel`` times the later one.
    """
    count = START_NODES
    [est] = integrate_weighted([d], exponent_sign, g, gauss_legendre_rule(count))
    while count < MAX_NODES:
        count *= 2
        [new] = integrate_weighted([d], exponent_sign, g, gauss_legendre_rule(count))
        if abs(new - est) <= tol or abs(new - est) <= rel * abs(new):
            return new, count, abs(new - est)
        est = new
    raise QuadratureConvergenceError(
        f"no convergence to tol={tol} or rel={rel} within {MAX_NODES} nodes")


def integral_kernel_reference(n, k, t, d, tol):
    """The integral-form kernel at one distance, over ``adaptive_reference``."""
    c = k * (n + 1) - 1
    cnk = 1.0 / (2.0 ** (k * n - 2) * math.pi ** (k * n + 1))
    outer = cnk / math.cos(d) ** (2 * (k - 1))
    theta_tol = 1e-12 if tol >= 1e-11 else 0.1 * tol
    series = PsiSeries(c, (t,), theta_tol)  # the one time's row
    value, nodes, err = adaptive_reference(
        d, 0.5 if k == 2 else -0.5, lambda u: series((0,), u)[0], 0.5 * tol / outer,
        0.5 * tol)
    return KernelValue(value=outer * value, terms_or_nodes=nodes,
                       est_error=outer * err + cnk * 0.5 * math.pi * theta_tol)
