"""Jacobi and Gegenbauer polynomials and the derivative-ladder operator.

Evaluation is by forward three-term recurrence in the degree, which is
stable for the weight exponents used here (all > -1/2) and exact to
roundoff at degrees 0 and 1.  The kernels run only the single steps
``jacobi_step`` and ``gegenbauer_step``; the whole-polynomial functions
serve the identity checks.  The operator

    L = -(1/sin u) d/du,

acting on functions of cos u, is plain d/d(cos u); applied to Gegenbauer
terms it is handled algebraically through the order-raising identity

    L^m C_l^lam(cos u) = 2^m (lam)_m C_{l-m}^{lam+m}(cos u),

never by numerical differentiation.  Since L cos(qu) = q C_{q-1}^1(cos u),
the same identity ladders a single cosine harmonic.  All functions are
pure and accept scalars or numpy arrays for the evaluation point; each
raises DomainError for a degree, exponent, order, ladder count or
evaluation point outside its domain.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# cos() roundoff can land arguments marginally outside [-1, 1]
_X_SLACK = 1e-12


def _check_degree(l: int) -> None:
    if l < 0:
        raise DomainError(f"degree must be >= 0, got {l}")


def _check_order(lam: float) -> None:
    if not lam > 0:
        raise DomainError(f"order must be positive, got {lam}")


def _check_x(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) <= 1.0 + _X_SLACK):  # NaN fails too
        raise DomainError("evaluation point must lie in [-1, 1]")
    return np.clip(arr, -1.0, 1.0)


def _scalar_or_array(values, x):
    return float(values) if np.ndim(x) == 0 else values


def jacobi_step(l: int, a: float, b: float, x, p_cur, p_prev):
    """P_l^(a,b)(x) from (P_{l-1}, P_{l-2}) by the three-term recurrence.

    At l = 1 the closed form is returned and both inputs are ignored, so a
    loop may start from (P_0, P_{-1}) = (1, 0).
    """
    if l == 1:
        return (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    c1 = 2.0 * l * (l + a + b) * (2.0 * l + a + b - 2.0)
    c2 = (2.0 * l + a + b - 1.0) * (a * a - b * b)
    c3 = (2.0 * l + a + b - 2.0) * (2.0 * l + a + b - 1.0) * (2.0 * l + a + b)
    c4 = 2.0 * (l + a - 1.0) * (l + b - 1.0) * (2.0 * l + a + b)
    return ((c2 + c3 * x) * p_cur - c4 * p_prev) / c1


def jacobi_p(l: int, a: float, b: float, x):
    """P_l^(a,b)(x) for x in [-1, 1] by three-term recurrence."""
    _check_degree(l)
    if not (a > -0.5 and b > -0.5):
        raise DomainError(f"weight exponents must exceed -1/2, got alpha={a}, beta={b}")
    xv = _check_x(x)
    p, p_prev = np.ones_like(xv), np.zeros_like(xv)
    for k in range(1, l + 1):
        p, p_prev = jacobi_step(k, a, b, xv, p, p_prev), p
    return _scalar_or_array(p, x)


def jacobi_endpoint(l: int, alpha: float) -> float:
    """P_l^(alpha,beta)(1) = binom(l + alpha, l), independent of beta."""
    out = 1.0
    for i in range(1, l + 1):
        out *= (alpha + i) / i
    return out


def gegenbauer_step(l: int, lam: float, x, c_cur, c_prev):
    """C_l^lam(x) from (C_{l-1}, C_{l-2}) by the three-term recurrence.

    At l = 1 the closed form is returned and both inputs are ignored, so a
    loop may start from (C_0, C_{-1}) = (1, 0).
    """
    if l == 1:
        return 2.0 * lam * x
    return (2.0 * (l + lam - 1.0) * x * c_cur - (l + 2.0 * lam - 2.0) * c_prev) / l


def gegenbauer_c(l: int, lam: float, x):
    """C_l^lam(x) for x in [-1, 1] by three-term recurrence.

    For lam = 1 this is the Dirichlet-type ratio sin((l+1)u)/sin(u) at
    x = cos(u).
    """
    _check_degree(l)
    _check_order(lam)
    xv = _check_x(x)
    c, c_prev = np.ones_like(xv), np.zeros_like(xv)
    for k in range(1, l + 1):
        c, c_prev = gegenbauer_step(k, lam, xv, c, c_prev), c
    return _scalar_or_array(c, x)


def ladder_apply(m: int, l: int, lam: float, x):
    """L^m C_l^lam(cos u) at x = cos u, in closed form.

    That is 2^m (lam)_m C_{l-m}^{lam+m}(x), and zero when m > l (the
    operator has differentiated the polynomial away).
    """
    if m < 0:
        raise DomainError(f"ladder count must be >= 0, got {m}")
    _check_degree(l)
    _check_order(lam)
    if m > l:
        return _scalar_or_array(np.zeros_like(_check_x(x)), x)
    rising = 1.0  # (lam)_m
    for i in range(m):
        rising *= lam + i
    return (2.0**m) * rising * gegenbauer_c(l - m, lam + m, x)
