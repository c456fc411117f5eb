"""Jacobi and Gegenbauer polynomials and the derivative-ladder operator.

Evaluation is by forward three-term recurrence in the degree, which is
stable for the weight exponents used here (all > -1/2) and exact to
roundoff at degrees 0 and 1.  The kernels run only the single steps
``jacobi_step`` and ``gegenbauer_step``; the whole-polynomial functions
serve the identity checks.  Those take one degree or a row of degrees:
a row gives one row of values per degree, from one recurrence up to the
largest, each bit for bit its one-degree call.  The operator

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

import operator

import numpy as np

from .errors import DomainError

# cos() roundoff can land arguments marginally outside [-1, 1]
_X_SLACK = 1e-12


def _check_count(value, what: str, least: int = 0) -> None:
    try:  # numpy integers pass, floats do not
        operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{what} must be >= {least}, got {value}")


def _check_degrees(l) -> list:
    """The degrees of ``l``, one degree or a row of them, as a list, each checked."""
    arr = np.asarray(l)
    if arr.ndim > 1:
        raise DomainError(f"degrees must be one degree or a row, got {arr.ndim} dimensions")
    degrees = arr.tolist() if arr.ndim else [l]
    for degree in degrees:
        _check_count(degree, "degree")
    return degrees


def _check_order(lam: float) -> None:
    if not 0 < lam < np.inf:  # NaN fails too
        raise DomainError(f"order must be positive, got {lam}")


def _check_x(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) <= 1.0 + _X_SLACK):  # NaN fails too
        raise DomainError("evaluation point must lie in [-1, 1]")
    return np.clip(arr, -1.0, 1.0)


def _rows(step, degrees: list, shape: tuple) -> np.ndarray:
    """One row of the given shape per degree of ``degrees``, by the recurrence ``step``.

    ``step(k, P_{k-1}, P_{k-2})`` gives P_k.  One recurrence runs up to
    the largest degree, from (P_0, P_{-1}) = (1, 0), and each degree's row
    is taken as the recurrence passes it.
    """
    rows = np.empty((len(degrees),) + shape)
    p, p_prev, k = 1.0, 0.0, 0  # broadcast over the points
    for i in sorted(range(len(degrees)), key=degrees.__getitem__):
        for k in range(k + 1, degrees[i] + 1):
            p, p_prev = step(k, p, p_prev), p
        rows[i] = p
    return rows


def _one_or_rows(rows: np.ndarray, l, x):
    """``rows`` for a row of degrees ``l``; for one degree its values, a float at a scalar x."""
    if np.ndim(l):
        return rows
    return float(rows[0]) if np.ndim(x) == 0 else rows[0]


def jacobi_step(l: int, a: float, b: float, x, p_cur, p_prev):
    """P_l^(a,b)(x) from (P_{l-1}, P_{l-2}) by the three-term recurrence.

    At l = 1 the closed form is returned and both inputs are ignored, so a
    loop may start from (P_0, P_{-1}) = (1, 0).
    """
    if l == 1:  # halving the scalar first rounds as halving the product does, one step fewer
        return (a + 1.0) + 0.5 * (a + b + 2.0) * (x - 1.0)
    c1 = 2.0 * l * (l + a + b) * (2.0 * l + a + b - 2.0)
    c2 = (2.0 * l + a + b - 1.0) * (a * a - b * b)
    c3 = (2.0 * l + a + b - 2.0) * (2.0 * l + a + b - 1.0) * (2.0 * l + a + b)
    c4 = 2.0 * (l + a - 1.0) * (l + b - 1.0) * (2.0 * l + a + b)
    return ((c2 + c3 * x) * p_cur - c4 * p_prev) / c1


def jacobi_p(l, a: float, b: float, x):
    """P_l^(a,b)(x) for x in [-1, 1] by three-term recurrence; l is a degree or a row."""
    degrees = _check_degrees(l)
    if not (-0.5 < a < np.inf and -0.5 < b < np.inf):
        raise DomainError(f"weight exponents must exceed -1/2, got alpha={a}, beta={b}")
    xv = _check_x(x)
    return _one_or_rows(_rows(lambda k, p, q: jacobi_step(k, a, b, xv, p, q), degrees, xv.shape),
                        l, x)


def gegenbauer_step(l: int, lam: float, x, c_cur, c_prev):
    """C_l^lam(x) from (C_{l-1}, C_{l-2}) by the three-term recurrence.

    At l = 1 the closed form is returned and both inputs are ignored, so a
    loop may start from (C_0, C_{-1}) = (1, 0).
    """
    if l == 1:
        return 2.0 * lam * x
    return (2.0 * (l + lam - 1.0) * x * c_cur - (l + 2.0 * lam - 2.0) * c_prev) / l


def gegenbauer_c(l, lam: float, x):
    """C_l^lam(x) for x in [-1, 1] by three-term recurrence; l is a degree or a row.

    For lam = 1 this is the Dirichlet-type ratio sin((l+1)u)/sin(u) at
    x = cos(u).
    """
    degrees = _check_degrees(l)
    _check_order(lam)
    xv = _check_x(x)
    return _one_or_rows(_rows(lambda k, p, q: gegenbauer_step(k, lam, xv, p, q), degrees,
                              xv.shape), l, x)


def ladder_apply(m: int, l, lam: float, x):
    """L^m C_l^lam(cos u) at x = cos u, in closed form; l is a degree or a row.

    That is 2^m (lam)_m C_{l-m}^{lam+m}(x), and zero when m > l (the
    operator has differentiated the polynomial away).
    """
    _check_count(m, "ladder count")
    degrees = _check_degrees(l)
    _check_order(lam)
    rising = 1.0  # (lam)_m
    for i in range(m):
        rising *= lam + i
    xv, order = _check_x(x), lam + m
    rows = (2.0**m) * rising * _rows(lambda k, p, q: gegenbauer_step(k, order, xv, p, q),
                                     [max(0, d - m) for d in degrees], xv.shape)
    for i, degree in enumerate(degrees):
        if degree < m:
            rows[i] = 0.0
    return _one_or_rows(rows, l, x)
