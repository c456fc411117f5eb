"""Jacobi and Gegenbauer polynomials and the derivative-ladder operator.

Evaluation is by forward three-term recurrence in the degree, which is
stable for the weight exponents used here (all > -1/2) and exact to
roundoff at degrees 0 and 1.  The operator

    L = -(1/sin u) d/du,

acting on functions of cos u, is plain d/d(cos u); applied to Gegenbauer
terms it is handled algebraically through the order-raising identity

    L^m C_l^lam(cos u) = 2^m (lam)_m C_{l-m}^{lam+m}(cos u),

never by numerical differentiation.  All functions are pure and accept
scalars or numpy arrays for the evaluation point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# cos() roundoff can land arguments marginally outside [-1, 1]
_X_SLACK = 1e-12

# switch Pochhammer/binomial products to log space above this degree
_LOG_SPACE_DEGREE = 150


@dataclass(frozen=True)
class JacobiParams:
    """Degree and weight exponents (alpha, beta) of a Jacobi polynomial."""

    l: int
    alpha: float
    beta: float

    def __post_init__(self):
        if self.l < 0:
            raise DomainError(f"degree must be >= 0, got {self.l}")
        if not (self.alpha > -0.5 and self.beta > -0.5):
            raise DomainError(
                f"weight exponents must exceed -1/2, got alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class GegenbauerParams:
    """Degree and order of an ultraspherical (Gegenbauer) polynomial."""

    l: int
    lam: float

    def __post_init__(self):
        if self.l < 0:
            raise DomainError(f"degree must be >= 0, got {self.l}")
        if not self.lam > 0:
            raise DomainError(f"order must be positive, got {self.lam}")


@dataclass(frozen=True)
class LadderResult:
    """Algebraic image of an iterated ladder application.

    Represents the function ``scale * C_degree^order(cos u)``; when
    ``degree`` is negative the represented function is identically zero
    (the operator has differentiated the polynomial away).
    """

    scale: float
    degree: int
    order: float

    @property
    def is_zero(self) -> bool:
        return self.degree < 0

    def evaluate(self, x):
        """Value of the represented function at x = cos(u)."""
        if self.is_zero:
            return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
        return self.scale * _gegenbauer_values(self.degree, self.order, _check_x(x))


def _check_x(x):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -1.0 - _X_SLACK) or np.any(arr > 1.0 + _X_SLACK):
        raise DomainError("evaluation point outside [-1, 1]")
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


def _jacobi_values(l: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    p, p_prev = np.ones_like(x), np.zeros_like(x)
    for k in range(1, l + 1):
        p, p_prev = jacobi_step(k, a, b, x, p, p_prev), p
    return p


def jacobi_p(params: JacobiParams, x):
    """Evaluate P_l^(alpha,beta) at x in [-1, 1] by three-term recurrence."""
    xv = _check_x(x)
    return _scalar_or_array(_jacobi_values(params.l, params.alpha, params.beta, xv), x)


def jacobi_endpoint(l: int, alpha: float) -> float:
    """P_l^(alpha,beta)(1) = binom(l + alpha, l), independent of beta."""
    if l > _LOG_SPACE_DEGREE:
        return math.exp(math.lgamma(l + alpha + 1) - math.lgamma(alpha + 1) - math.lgamma(l + 1))
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


def _gegenbauer_values(l: int, lam: float, x: np.ndarray) -> np.ndarray:
    c, c_prev = np.ones_like(x), np.zeros_like(x)
    for k in range(1, l + 1):
        c, c_prev = gegenbauer_step(k, lam, x, c, c_prev), c
    return c


def gegenbauer_c(params: GegenbauerParams, x):
    """Evaluate C_l^lam at x in [-1, 1] by three-term recurrence.

    For lam = 1 this is the Dirichlet-type ratio sin((l+1)u)/sin(u) at
    x = cos(u).
    """
    xv = _check_x(x)
    return _scalar_or_array(_gegenbauer_values(params.l, params.lam, xv), x)


def pochhammer(a: float, m: int) -> float:
    """Rising factorial (a)_m = a (a+1) ... (a+m-1)."""
    if m < 0:
        raise DomainError("pochhammer order must be >= 0")
    if m > _LOG_SPACE_DEGREE and a > 0:
        return math.exp(math.lgamma(a + m) - math.lgamma(a))
    out = 1.0
    for i in range(m):
        out *= a + i
    return out


def ladder_apply(m: int, source: GegenbauerParams) -> LadderResult:
    """Apply L m times to C_l^lam(cos u), staying in closed form.

    Returns the triple with scale 2^m (lam)_m, degree l - m and order
    lam + m; the zero function when the degree drops below zero.
    """
    if m < 0:
        raise DomainError(f"ladder count must be >= 0, got {m}")
    degree = source.l - m
    if degree < 0:
        return LadderResult(scale=0.0, degree=-1, order=source.lam + m)
    scale = (2.0**m) * pochhammer(source.lam, m)
    return LadderResult(scale=scale, degree=degree, order=source.lam + m)


def cosine_ladder(m: int, q: int) -> LadderResult:
    """Apply L m times to the single harmonic cos(q u).

    Uses L^m cos(qu) = q 2^(m-1) (m-1)! C_{q-m}^m(cos u); the zero
    function when q < m.
    """
    if m < 1:
        raise DomainError(f"ladder count must be >= 1, got {m}")
    if q < 1:
        raise DomainError(f"harmonic index must be >= 1, got {q}")
    degree = q - m
    if degree < 0:
        return LadderResult(scale=0.0, degree=-1, order=float(m))
    scale = q * (2.0 ** (m - 1)) * math.factorial(m - 1)
    return LadderResult(scale=scale, degree=degree, order=float(m))
