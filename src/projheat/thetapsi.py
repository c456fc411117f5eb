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

So ``PsiSeries`` sums sin(u) times the even-degree part of the zonal
heat series of S^(2c+1), the sphere that fibres over P^n(F) when
c = k(n+1) - 1.  It is assembled termwise by one rolling Gegenbauer
recurrence of order c, with no actual differentiation, so it is finite
at u = 0 and u = pi, and the folded exponents keep the large-t prefactor
from overflowing.  Time enters only through the scalar weights, so
``PsiSeries`` sums each time's weights once and runs one recurrence for
a whole column of times.

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

from .errors import TruncationCapError
from .orthopoly import gegenbauer_step


#: absolute tail tolerance of PsiSeries, unless its caller gives one
DEFAULT_TOL = 1e-12

#: hard cap on the terms of one series, which TruncationCapError reports
TERM_CAP = 20000


def _weights_overflow(c: int, t: float) -> TruncationCapError:
    # the message names the ladder count j = c
    return TruncationCapError(f"ladder series weights overflow floating point at j={c}, t={t}")


def _weights(c: int, t: float, tol: float, base: float) -> list:
    """The series' term weights at time t, up to the first whose tail bound meets tol.

    Term l is the Gegenbauer term of order c and degree 2l.  The tail bound
    majorizes |C_{2l}^c| by its value at the right endpoint,
    binom(2l + 2c - 1, 2c - 1), which is where the polynomial growth
    enters.  A weight is tested before it is kept: one that is not finite
    raises TruncationCapError.
    """
    shift = float(c * c)  # the folded exp(c^2 t)
    weights = []
    endpoint = decay = 1.0  # binom(q + c - 1, 2c - 1) and exp((c^2 - 4 (l + c/2)^2) t) at l
    for l in range(TERM_CAP + 1):
        q = 2 * l + c
        w = decay * q * base
        if not math.isfinite(w):  # the ladder scale overflowed: never let it into the sum
            raise _weights_overflow(c, t)
        weights.append(w)

        # advance the endpoint bound to l+1 and test the geometric majorant
        endpoint *= ((q + c) * (q + c + 1)) / ((q - c + 1) * (q - c + 2))
        qn = q + 2
        decay = math.exp((shift - 4.0 * (l + 1 + 0.5 * c) ** 2) * t)  # term l+1's, carried
        b_next = decay * qn * base * endpoint
        rho = (
            math.exp(-4.0 * t * (qn + 1))
            * ((qn + 2) / qn)
            * (((qn + c) * (qn + c + 1)) / ((qn - c + 1) * (qn - c + 2)))
        )
        if rho < 1.0:
            tail = b_next / (1.0 - rho)
            if tail <= tol:
                return weights
            if not math.isfinite(tail):  # the ladder scale or the endpoint overflowed
                raise _weights_overflow(c, t)
    raise TruncationCapError(f"ladder series needs more than {TERM_CAP} terms at t={t}")


class PsiSeries:
    """exp(c^2 t) Psi_c(t, u) for a column of times ``ts``, as a function of (rows, u).

    Construction sums each time's weights once, up to that time's own
    truncation index, into one zero-padded row of a weight table.  Its
    arguments are trusted as ``kernels.unified`` checked them: an integer
    1 <= c <= ``geometry.MAX_OFFSET``, a column of positive finite times
    and a positive finite tolerance.  It raises TruncationCapError for
    the first time, in column order, whose weights overflow or need more
    than TERM_CAP terms.  A call ``series(rows, u)`` gives one row of
    values per index in ``rows`` (into ``ts``), over the angles ``u``.  It
    takes those rows of the table, longest series first, and runs one
    rolling order-c Gegenbauer recurrence over the angles, two steps per
    term; term l adds ``table[:m, l] * C_2l`` into the leading block of
    the m rows whose series still have a term l.  Row i is bit for bit
    the one row of ``PsiSeries(c, (ts[rows[i]],), tol)((0,), u)``, at
    finite angles.  A call raises TruncationCapError for the first row
    whose values are not finite: a finite weight whose term or partial
    sum overflows leaves inf or NaN in them.
    """

    def __init__(self, c: int, ts, tol: float = DEFAULT_TOL):
        ts = np.asarray(ts, dtype=float)
        base = (2.0 ** (c - 1)) * math.factorial(c - 1)  # q-independent ladder scale
        self.c, self.ts = c, ts
        weights = [_weights(c, t, tol, base) for t in ts.tolist()]
        self.terms = np.array([len(w) for w in weights], dtype=int)
        self.table = np.zeros((ts.size, self.terms.max(initial=0)))
        for row, w in zip(self.table, weights):
            row[:len(w)] = w

    @np.errstate(over="ignore", invalid="ignore")  # an overflowed term is refused at the end
    def __call__(self, rows, u) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        u_arr = np.asarray(u, dtype=float)
        x = np.cos(u_arr)
        # longest series first: the rows still summing at term l are a leading block
        order = np.argsort(-self.terms[rows])
        ends = self.terms[rows[order]]
        length = int(ends.max(initial=0))
        # term by term, the sorted rows' weights, shaped to broadcast over the angles
        weights = self.table[rows[order], :length].T.reshape(
            (length, rows.size) + (1,) * x.ndim)
        # the block at term l: how many rows have a term l
        blocks = np.searchsorted(-ends, -np.arange(length), side="left").tolist()
        totals = np.zeros((rows.size,) + x.shape)
        lam = float(self.c)
        # rolling Gegenbauer pair (C_2l, C_{2l-1}) of order c
        c_cur, c_prev = np.ones_like(x), np.zeros_like(x)
        for l, (m, w) in enumerate(zip(blocks, weights)):
            if l:
                c_cur, c_prev = gegenbauer_step(2 * l - 1, lam, x, c_cur, c_prev), c_cur
                c_cur, c_prev = gegenbauer_step(2 * l, lam, x, c_cur, c_prev), c_cur
            totals[:m] += w[:m] * c_cur
        # back to the order of ``rows``, in the same buffer: returning the gathered
        # copy faults in fresh pages on every call, ~10% of a 50 x 100 grid's time
        totals[:] = totals[np.argsort(order)]
        totals *= np.sin(u_arr)
        if not np.isfinite(totals).all():
            bad = ~np.isfinite(totals.reshape(rows.size, -1)).all(axis=1)
            raise _weights_overflow(self.c, float(self.ts[rows[np.argmax(bad)]]))
        return totals

