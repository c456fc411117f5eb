"""The three-term recurrence steps of the Jacobi and Gegenbauer polynomials.

The kernels run only single steps: ``jacobi_step`` in the series, and
``gegenbauer_step`` in ``thetapsi.PsiSeries`` and in the Legendre
recurrence of the Gauss-Legendre rule (Legendre is Gegenbauer order 1/2).
Forward recurrence in the degree is stable for the weight exponents used
here (all > -1/2) and exact to roundoff at degrees 0 and 1.  The
whole-polynomial evaluators and the closed-form derivative ladder that
certify these steps live in ``verify``, with their argument checks,
since only the identity checks evaluate whole polynomials.
"""

from __future__ import annotations


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


def gegenbauer_step(l: int, lam: float, x, c_cur, c_prev):
    """C_l^lam(x) from (C_{l-1}, C_{l-2}) by the three-term recurrence.

    At l = 1 the closed form is returned and both inputs are ignored, so a
    loop may start from (C_0, C_{-1}) = (1, 0).
    """
    if l == 1:
        return 2.0 * lam * x
    return (2.0 * (l + lam - 1.0) * x * c_cur - (l + 2.0 * lam - 2.0) * c_prev) / l
