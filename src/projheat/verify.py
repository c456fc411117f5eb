"""Numerical certification of every identity the kernel formulas rest on.

Each check produces a VerificationReport rather than raising, so the full
suite always completes and doubles as an errata detector: a false
identity shows up as a failed report with the measured discrepancy, not
as a crash.  A report passes when its absolute or its relative error is
within tolerance, which amounts to relative comparison for large values
and absolute comparison near zero.

The first weight exponent of the square-root integral representation of
Jacobi polynomials, displayed in the source as "2n-1", is a typo for
"2n-2".  The suite certifies "2n-2" point by point and keeps one
resolution report, which passes only while the displayed reading misses.

Representation theory gives an oracle that shares nothing with either
form: Weyl's dimension formula gives the multiplicity of each eigenvalue,
and with it the heat trace vol E(t, 0).
"""

from __future__ import annotations

import json
import math
import os
import pickle
import random
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import geometry, kernels, orthopoly, quadrature, thetapsi
from .errors import DomainError, QuadratureConvergenceError, TruncationCapError
from .geometry import SpaceDescriptor
from .quadrature import adaptive_integrate_row, gauss_legendre_rule

_HALF_PI = 0.5 * math.pi

#: projective indices every per-space group covers, and those spaces over both fields
_NS = (1, 2, 3)
_SPACES = tuple(SpaceDescriptor(n=n, k=k) for k in (1, 2) for n in _NS)

#: lower limits at which the lemma and jacobi_rep groups integrate
_REP_DS = (0.0, 0.3, 0.7, 1.1, 1.4)

#: term cap of the theta oracles, which sum to a fixed 1e-12
_THETA_CAP = 20000

#: node counts of the radial doubling loop's first rule and of its last
_RADIAL_START = 64
_RADIAL_MAX = 8192

#: the encoder of report sort keys, built once: json.dumps builds one per call
_SORT_KEY_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


class VerificationReport(NamedTuple):
    """Structured record of one identity check."""

    identity_name: str
    parameters: dict
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tol: float
    passed: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "identity": self.identity_name,
                "parameters": self.parameters,
                "lhs": self.lhs,
                "rhs": self.rhs,
                "abs_err": self.abs_err,
                "rel_err": self.rel_err,
                "tol": self.tol,
                "passed": self.passed,
            },
            separators=(",", ":"),
        )

    def sort_key(self):
        return (self.identity_name, _SORT_KEY_ENCODER.encode(self.parameters))


def compare_values(lhs, rhs, tol: float, scale: float = 0.0):
    """(abs_err, rel_err, passed) of ``lhs`` against ``rhs``, on floats or elementwise on arrays.

    The pass rule of every report: the absolute or the relative error is
    within ``tol``.  The relative error divides by max(|lhs|, |rhs|,
    scale), and is 0 where that is 0 (both sides are 0 there).  A NaN or
    infinite side makes the relative error NaN, so it fails in either
    position.
    """
    denom = np.maximum(np.maximum(abs(lhs), abs(rhs)), scale)
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf are NaN
        abs_err = abs(lhs - rhs)
        rel_err = abs_err / (denom + (denom == 0.0))  # 0 / 1 where denom is 0
    return abs_err, rel_err, (abs_err <= tol) | (rel_err <= tol)


def _row_reports(name: str, parameters: list, lhs, rhs, tol: float, scale=0.0) -> list:
    """One report per entry of the rows ``lhs`` and ``rhs``, by one ``compare_values`` call.

    ``parameters`` holds each entry's parameters.  ``scale``, a scalar or
    one value per entry, optionally widens the relative denominator: an
    explicit scale makes polynomial-magnitude comparisons meaningful near
    zeros of the polynomial.
    """
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    abs_err, rel_err, passed = compare_values(lhs, rhs, tol, scale)
    return [VerificationReport(name, p, *entries, tol, ok)
            for p, ok, *entries in zip(parameters, passed.tolist(), lhs.tolist(), rhs.tolist(),
                                       abs_err.tolist(), rel_err.tolist())]


def _worst_report(name: str, parameters: dict, key: str, xs: np.ndarray,
                  lhs: np.ndarray, rhs: np.ndarray, tol: float,
                  scale: float = 0.0) -> VerificationReport:
    """One report at the first point of ``xs`` where |lhs - rhs| is largest.

    That point's coordinate is recorded under ``key`` after ``parameters``;
    the whole row is compared in one ``compare_values`` call.  ``np.argmax``
    picks a NaN point first, so a NaN anywhere in the row fails the report.
    """
    abs_err, rel_err, passed = compare_values(lhs, rhs, tol, scale)
    worst = int(np.argmax(abs_err))
    return VerificationReport(name, {**parameters, key: float(xs[worst])},
                              float(lhs[worst]), float(rhs[worst]), float(abs_err[worst]),
                              float(rel_err[worst]), tol, bool(passed[worst]))


def _flag_report(name: str, parameters: dict, lhs: float, rhs: float, shortfall: float,
                 tol: float = 0.5) -> VerificationReport:
    """A one-sided or boolean check: it passes when ``shortfall`` is within ``tol``.

    abs_err and rel_err both read the shortfall, which keeps the
    passed <-> error<=tol invariant intact; a boolean check passes
    ``float(not ok)`` against the default tol 0.5.  A NaN shortfall fails.
    """
    return VerificationReport(name, parameters, lhs, rhs, shortfall, shortfall, tol,
                              bool(shortfall <= tol))


class SuiteProfile:
    """Selects the groups run by full_suite: those whose names start with one of ``groups``.

    ``groups`` is None (every group) or a sequence of prefixes.  A bare
    string is refused: each of its characters would be a prefix.
    """

    __slots__ = ("groups",)

    def __init__(self, groups: Optional[tuple] = None):
        if isinstance(groups, str):
            raise TypeError(f"groups must be a sequence of name prefixes, not a string: "
                            f"write groups=({groups!r},)")
        self.groups = None if groups is None else tuple(groups)

    def wants_group(self, name: str) -> bool:
        if self.groups is None:
            return True
        return any(name.startswith(g) for g in self.groups)


# ---------------------------------------------------------------------------
# independent oracles used only inside checks


def _exact_jacobi(l: int, alpha: float, beta: float, x: float) -> float:
    """Jacobi polynomial by its terminating series, exactly, on Python ints.

    The series is sum_s (l+a+b+1)_s (a+s+1)_{l-s} (-z)^s / (s! (l-s)!)
    with z = (1-x)/2.  Every float is a binary rational, so a = A/Q and
    b = B/Q over one power-of-two Q, and z = Z/R; clearing denominators
    turns the sum into the integer

        sum_s C(l,s) prod_{i<s} ((l+1+i)Q + A + B) prod_{s<j<=l} (jQ + A) (-Z)^s R^(l-s)

    over Q^l R^l l!.  One final ``int / int`` rounds that exact quotient
    correctly, as ``float(Fraction)`` does (it is itself an ``int / int``
    of the reduced quotient), so the result is the same float as the
    rational-arithmetic series gives, with no gcd after every step.  It
    shares nothing with the production recurrence.
    """
    a_num, a_den = float(alpha).as_integer_ratio()
    b_num, b_den = float(beta).as_integer_ratio()
    x_num, x_den = float(x).as_integer_ratio()
    q = max(a_den, b_den)  # both powers of two
    a = a_num * (q // a_den)
    ab = a + b_num * (q // b_den)
    z, r = x_den - x_num, 2 * x_den
    # suffix[s] = prod_{s<j<=l} (jQ + A)
    suffix = [1] * (l + 1)
    for s in range(l - 1, -1, -1):
        suffix[s] = suffix[s + 1] * ((s + 1) * q + a)
    total = 0
    rising = 1  # prod_{i<s} ((l+1+i)Q + A + B)
    for s in range(l + 1):
        total += math.comb(l, s) * rising * suffix[s] * (-z) ** s * r ** (l - s)
        rising *= (l + 1 + s) * q + ab
    return total / (q**l * r**l * math.factorial(l))


def _jacobi_endpoint(l: int, alpha: float) -> float:
    """P_l^(alpha,beta)(1) = binom(l + alpha, l), independent of beta."""
    out = 1.0
    for i in range(1, l + 1):
        out *= (alpha + i) / i
    return out


def _ladder_fd(f: Callable[[np.ndarray], np.ndarray], u0, m: int) -> np.ndarray:
    """Iterated -(1/sin u) d/du by nested central differences, Richardson once.

    Row contract: one value per point of the row ``u0``, as one stencil per
    point gives it; ``f`` acts elementwise, called once per step on the
    (len(u0), 2m+1) stencil array.  The step doubles with each nesting
    level beyond two: nested differencing amplifies roundoff by (2h)^-m.
    """
    h = 1e-3 * (2.0 ** max(0, m - 2))
    u0 = np.asarray(u0, dtype=float)[..., None]

    def once(step: float) -> np.ndarray:
        us = u0 + step * np.arange(-m, m + 1, dtype=float)
        vals = f(us)
        for _ in range(m):
            vals = -(vals[..., 2:] - vals[..., :-2]) / (2.0 * step * np.sin(us[..., 1:-1]))
            us = us[..., 1:-1]
        return vals[..., 0]

    return (4.0 * once(0.5 * h) - once(h)) / 3.0


def _brute_sum(m: int, t: float, terms: int, term: Callable[[float, int], float]) -> float:
    """Sum of term(a, q) over l < ``terms``, a = exp(-4t(l + (m-1)/2)^2), q = 2l + m - 1.

    a only falls with l, so stopping at the first a == 0.0 drops only +-0.0 terms.
    """
    total = 0.0
    for l in range(terms):
        a = math.exp(-4.0 * t * (l + 0.5 * (m - 1)) ** 2)
        if a == 0.0:
            break
        total += term(a, 2 * l + m - 1)
    return total


def _theta_sum(m: int, t: float, u):
    """theta_m(t; u) = sum_{l>=0} exp(-4t(l + (m-1)/2)^2) cos((2l+m-1)u), vectorized over u.

    Summed to 1e-12 under a geometric tail majorant, with no ladder.
    """
    u_arr = np.asarray(u, dtype=float)
    if m < 2:
        raise DomainError(f"series subscript must be >= 2, got {m}")
    if not t > 0:
        raise DomainError(f"diffusion time must be positive, got {t}")
    if not np.all(np.isfinite(u_arr)):
        raise DomainError("angle must be finite")
    half = 0.5 * (m - 1)
    total = np.zeros_like(u_arr)
    for l in range(_THETA_CAP + 1):
        a = math.exp(-4.0 * (l + half) ** 2 * t)
        total += a * np.cos((2 * l + m - 1) * u_arr)
        b_next = math.exp(-4.0 * (l + 1 + half) ** 2 * t)
        rho = math.exp(-4.0 * t * (2 * l + 2 + m))
        if rho < 1.0 and b_next / (1.0 - rho) <= 1e-12:
            return float(total) if np.ndim(u) == 0 else total
    raise TruncationCapError(f"theta series needs more than {_THETA_CAP} terms at t={t}")


def _jacobi_theta2_reference(z: float, tau_imag: float) -> float:
    """Second Jacobi theta function at purely imaginary lattice parameter.

    Sums 2 sum_{l>=0} exp(-pi tau_imag (l + 1/2)^2) cos((2l+1) pi z)
    directly; real-valued here.  For m = 2 the theta series is half of it
    at z = u/pi, tau_imag = 4t/pi.  Kept independent of ``_theta_sum`` so
    the two summations can certify each other.
    """
    if not tau_imag > 0:
        raise DomainError(f"imaginary part of tau must be positive, got {tau_imag}")
    total = 0.0
    for l in range(_THETA_CAP + 1):
        total += 2.0 * math.exp(-math.pi * tau_imag * (l + 0.5) ** 2) * math.cos(
            (2 * l + 1) * math.pi * z
        )
        b_next = 2.0 * math.exp(-math.pi * tau_imag * (l + 1.5) ** 2)
        rho = math.exp(-math.pi * tau_imag * (2 * l + 4))
        if rho < 1.0 and b_next / (1.0 - rho) <= 1e-12:
            return total
    raise TruncationCapError(f"theta2 series needs more than {_THETA_CAP} terms at tau={tau_imag}j")


def _offset_factorial(space: SpaceDescriptor) -> tuple:
    """(c!/(k-1)! / 2^shift, shift), the quotient as a float.

    c! overflows a float at the top of the accepted n range, so the exact
    integer quotient is divided down by a power of two (shift > 0 only
    above 2^1000).  That step and the caller's ldexp by 2^shift are exact,
    so results equal the plain float quotient wherever that one fits.
    """
    whole = math.factorial(space.spectral_offset) // math.factorial(space.k - 1)
    shift = max(0, whole.bit_length() - 1000)
    return whole / (1 << shift), shift


def _manifold_volume(space: SpaceDescriptor) -> float:
    """Total Riemannian volume, pi^(kn) / (c!/(k-1)!)."""
    scaled, shift = _offset_factorial(space)
    return math.ldexp(math.pi ** (space.k * space.n) / scaled, -shift)


def _stationary_value(space: SpaceDescriptor) -> float:
    """Long-time limit of the kernel, 1 / volume of the space: c!/(k-1)! / pi^(kn)."""
    scaled, shift = _offset_factorial(space)
    return math.ldexp(scaled / math.pi ** (space.k * space.n), shift)


def _weyl_dimensions(space: SpaceDescriptor, count: int) -> list:
    """Dimensions of the spherical representations l < ``count``, by Weyl's product on Python ints.

    The group is SU(n+1) (k = 1), highest weight l w with w = e_1 - e_{n+1},
    or Sp(n+1) (k = 2), w = e_1 + e_2; rho = (n+1, ..., 1) serves both.
    The dimension is the product over the positive roots a of
    (l <w, a> + <rho, a>) / <rho, a>: e_i - e_j, and for Sp also e_i + e_j
    and 2 e_i (as e_i + e_i).  Roots orthogonal to w give 1 and are skipped.
    """
    r = space.n + 1
    w = [1, 1] + [0] * (r - 2) if space.k == 2 else [1] + [0] * (r - 2) + [-1]
    rho = list(range(r, 0, -1))
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    roots = [(i, j, -1) for i, j in pairs]
    if space.k == 2:
        roots += [(i, j, 1) for i, j in pairs] + [(i, i, 1) for i in range(r)]
    factors = [(w[i] + s * w[j], rho[i] + s * rho[j]) for i, j, s in roots if w[i] + s * w[j]]
    den = math.prod(b for _, b in factors)
    return [math.prod(l * a + b for a, b in factors) // den for l in range(count)]


def _radial_integrals(fvec: Callable[[list, np.ndarray], np.ndarray], tols: list) -> list:
    """Doubling Gauss-Legendre integrals over (0, pi/2), one per integrand, each to its tolerance.

    ``fvec(rows, r)`` gives the integrands of the indices ``rows`` (into
    ``tols``) at the radii ``r``, one row each.  A round evaluates the rows
    still unconverged, and sums each row by its own dot product; a row
    stops at the first round whose estimate is within its tolerance of the
    previous one, so it keeps exactly the rounds it takes alone.
    """
    values = [math.nan] * len(tols)  # no row converges on the first round
    todo = list(range(len(tols)))
    count = _RADIAL_START
    while todo and count <= _RADIAL_MAX:
        rule = gauss_legendre_rule(count)
        r = (rule.nodes + 1.0) * (0.25 * math.pi)
        ests = (0.25 * math.pi) * np.vecdot(np.asarray(fvec(todo, r), dtype=float), rule.weights)
        left = []
        for i, est in zip(todo, ests.tolist()):
            if not abs(est - values[i]) <= tols[i]:
                left.append(i)
            values[i] = est
        todo = left
        count *= 2
    if todo:
        raise QuadratureConvergenceError(f"radial integral did not converge to {tols[todo[0]]}")
    return values


# ---------------------------------------------------------------------------
# whole polynomials by the production recurrence steps, for the identity checks
#
# Each takes one degree or a row of degrees: a row gives one row of values
# per degree, from one recurrence up to the largest, each bit for bit its
# one-degree call.  The operator L = -(1/sin u) d/du, acting on functions of
# cos u, is plain d/d(cos u); on Gegenbauer terms it is applied through the
# order-raising identity L^m C_l^lam(cos u) = 2^m (lam)_m C_{l-m}^{lam+m}(cos u),
# never by numerical differentiation, and L cos(qu) = q C_{q-1}^1(cos u)
# ladders a single cosine harmonic.  Each raises DomainError for a degree,
# exponent, order, ladder count or evaluation point outside its domain.

# cos() roundoff can land arguments marginally outside [-1, 1]
_X_SLACK = 1e-12


def _check_degrees(l) -> list:
    """The degrees of ``l``, one degree or a row of them, as a list, each checked."""
    arr = np.asarray(l)
    if arr.ndim > 1:
        raise DomainError(f"degrees must be one degree or a row, got {arr.ndim} dimensions")
    degrees = arr.tolist() if arr.ndim else [l]
    for degree in degrees:
        orthopoly._check_count(degree, "degree")
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


def _jacobi_p(l, a: float, b: float, x):
    """P_l^(a,b)(x) for x in [-1, 1] by three-term recurrence; l is a degree or a row."""
    degrees = _check_degrees(l)
    if not (-0.5 < a < np.inf and -0.5 < b < np.inf):
        raise DomainError(f"weight exponents must exceed -1/2, got alpha={a}, beta={b}")
    xv = _check_x(x)
    return _one_or_rows(
        _rows(lambda k, p, q: orthopoly.jacobi_step(k, a, b, xv, p, q), degrees, xv.shape), l, x)


def _gegenbauer_c(l, lam: float, x):
    """C_l^lam(x) for x in [-1, 1] by three-term recurrence; l is a degree or a row.

    For lam = 1 this is the Dirichlet-type ratio sin((l+1)u)/sin(u) at
    x = cos(u).
    """
    degrees = _check_degrees(l)
    _check_order(lam)
    xv = _check_x(x)
    return _one_or_rows(_rows(lambda k, p, q: orthopoly.gegenbauer_step(k, lam, xv, p, q),
                              degrees, xv.shape), l, x)


def _ladder_apply(m: int, l, lam: float, x):
    """L^m C_l^lam(cos u) at x = cos u, in closed form; l is a degree or a row.

    That is 2^m (lam)_m C_{l-m}^{lam+m}(x), and zero when m > l (the
    operator has differentiated the polynomial away).
    """
    orthopoly._check_count(m, "ladder count")
    degrees = _check_degrees(l)
    _check_order(lam)
    rising = 1.0  # (lam)_m
    for i in range(m):
        rising *= lam + i
    xv, order = _check_x(x), lam + m
    rows = (2.0**m) * rising * _rows(
        lambda k, p, q: orthopoly.gegenbauer_step(k, order, xv, p, q),
        [max(0, d - m) for d in degrees], xv.shape)
    for i, degree in enumerate(degrees):
        if degree < m:
            rows[i] = 0.0
    return _one_or_rows(rows, l, x)


# ---------------------------------------------------------------------------
# named identity checks


def lemma_check(n: int, ls, ds) -> list:
    """Square-root-weight integral of a laddered Gegenbauer term vs Jacobi form.

    LHS: integral over [d, pi/2] of sqrt(cos^2 d - cos^2 u)/cos^2 d times
    L^(2n) C_{2l+2n}^1(cos u) sin(u); RHS: 2^(2n-2) pi (l+2n)!/(l+1)!
    times P_l^(2n-1,1)(cos 2d).  One report per degree l of ``ls`` and
    distance d of ``ds``, in that order, each checked at tolerance 1e-8.
    The degrees are the rows of one doubling loop, and each side's
    polynomials come from one recurrence over the degrees.
    """
    ls = list(ls)

    def g(rows, u):
        return np.sin(u) * _ladder_apply(2 * n, [2 * ls[i] + 2 * n for i in rows], 1.0, np.cos(u))

    consts = np.array([2.0 ** (2 * n - 2) * math.pi * (math.factorial(l + 2 * n)
                                                        / math.factorial(l + 1)) for l in ls])
    rhss = consts[:, None] * _jacobi_p(ls, 2 * n - 1, 1, np.array([math.cos(2 * d) for d in ds]))
    cos2s = np.array([math.cos(d) ** 2 for d in ds])
    qtols = np.maximum(1e-13, 1e-11 * np.abs(rhss)) * cos2s
    values = adaptive_integrate_row(ds, 0.5, g, qtols).value
    return _row_reports("gegenbauer_ladder_to_jacobi",
                        [{"n": n, "l": l, "d": float(d)} for l in ls for d in ds],
                        (values / cos2s).ravel(), rhss.ravel(), 1e-8)


def _jacobi_rep_rows(n: int, ls, ds) -> tuple:
    """Inverse-square-root integral representation of Jacobi polynomials.

    RHS: 2 (l+1)! (2n-2)! / (pi (l+2n-1)!) times the integral over
    [d, pi/2] of sin(u) C_{2l+2}^(2n-1)(cos u) / sqrt(cos^2 d - cos^2 u).
    LHS: P_{l+1}^(2n-2, 0)(cos 2d).  Returns one report per degree l of
    ``ls`` and distance d of ``ds``, in that order, at tolerance 1e-8, and
    the verdict on the displayed reading P_{l+1}^(2n-1, 0) under the same
    rule: (holds at every point, largest relative error).  The degrees are
    the rows of one doubling loop.
    """
    ls = list(ls)

    def g(rows, u):
        return np.sin(u) * _gegenbauer_c([2 * ls[i] + 2 for i in rows], 2 * n - 1, np.cos(u))

    consts = [2.0 * math.factorial(l + 1) * math.factorial(2 * n - 2) / (
        math.pi * math.factorial(l + 2 * n - 1)) for l in ls]
    qtols = [[max(1e-13, 1e-11 * max(1.0, _jacobi_endpoint(l + 1, 2 * n - 2))) / const]
             * len(ds) for l, const in zip(ls, consts)]
    rhs = (np.array(consts)[:, None] * adaptive_integrate_row(ds, -0.5, g, qtols).value).ravel()
    xs = np.array([math.cos(2 * d) for d in ds])

    def sides(alpha):  # one reading's left side against rhs, with its endpoint scale
        return (_jacobi_p([l + 1 for l in ls], alpha, 0, xs).ravel(), rhs, 1e-8,
                [max(1.0, _jacobi_endpoint(l + 1, alpha)) for l in ls for _ in ds])

    reports = _row_reports("jacobi_sqrt_integral_rep",
                           [{"n": n, "l": l, "d": float(d)} for l in ls for d in ds],
                           *sides(2 * n - 2))
    _, rel_err, passed = compare_values(*sides(2 * n - 1))
    return reports, (bool(passed.all()), float(rel_err.max()))


def _theta2_sides(n: int, t: float, xs: list):
    """Both sides of the theta-2 relation over the angles ``xs``: (lhs, rhs) rows.

    lhs is theta_{2n+2} plus the first n harmonics of half the classical
    theta-2, rhs is that half; neither is a difference that could cancel.
    theta_{2n+2} is one row call; the harmonics and theta-2 are summed point
    by point in scalar ``math``, independently of it.
    """
    harmonics = [sum(math.exp(-4.0 * t * (l + 0.5) ** 2) * math.cos((2 * l + 1) * x)
                     for l in range(n)) for x in xs]
    lhs = _theta_sum(2 * n + 2, t, np.asarray(xs, dtype=float)) + harmonics
    rhs = np.array([0.5 * _jacobi_theta2_reference(x / math.pi, 4.0 * t / math.pi)
                    for x in xs])
    return lhs, rhs


# ---------------------------------------------------------------------------
# suite groups


def _check_orthopoly_recurrence():
    rng = random.Random(20240611)
    params, ours, exact, scales = [], [], [], []
    for i in range(40):
        l = rng.randrange(31)
        alpha = rng.uniform(-0.5 + 1e-3, 5.0)
        beta = rng.uniform(-0.5 + 1e-3, 5.0)
        x = rng.uniform(-1.0, 1.0)
        params.append({"sample": i, "l": l, "alpha": alpha, "beta": beta, "x": x})
        ours.append(_jacobi_p(l, alpha, beta, x))
        exact.append(_exact_jacobi(l, alpha, beta, x))
        scales.append(max(1.0, _jacobi_endpoint(l, max(alpha, beta))))
    return _row_reports("jacobi_recurrence_vs_series", params, ours, exact, 1e-10, scale=scales)


def _check_orthopoly_endpoint():
    cases = [(l, alpha) for alpha in (0, 1, 2, 3, 5) for l in (0, 1, 5, 12, 30)]
    exact = [float(math.comb(l + alpha, l)) for l, alpha in cases]
    return _row_reports("jacobi_endpoint_binomial", [{"l": l, "alpha": a} for l, a in cases],
                        [_jacobi_p(l, a, 1, 1.0) for l, a in cases], exact, 1e-12,
                        scale=exact)


def _check_orthopoly_trig():
    thetas = np.linspace(0.01, math.pi - 0.01, 40)
    reports = []
    for l in (1, 2, 5, 20, 50):
        vals = _gegenbauer_c(l, 1.0, np.cos(thetas))
        ref = np.sin((l + 1) * thetas) / np.sin(thetas)
        reports.append(_worst_report(
            "gegenbauer_dirichlet_ratio", {"l": l}, "theta", thetas, vals, ref, 1e-10,
        ))
    return reports


def _check_orthopoly_ladder():
    tol = 1e-5
    us = np.linspace(0.2, _HALF_PI - 0.2, 9)
    reports = []
    for m, l, lam in ((1, 4, 1.0), (2, 4, 1.0), (2, 6, 2.0), (3, 9, 1.0), (4, 12, 1.0)):
        exact_vals = _ladder_apply(m, l, lam, np.cos(us))
        fd_vals = _ladder_fd(lambda u: _gegenbauer_c(l, lam, np.cos(u)), us, m)
        scale = max(1.0, float(np.max(np.abs(exact_vals))))
        reports.append(_worst_report(
            "gegenbauer_ladder_vs_fd", {"m": m, "l": l, "lam": lam}, "u", us,
            exact_vals, fd_vals, tol, scale=scale,
        ))
    for m, q in ((1, 3), (2, 5), (3, 5), (3, 8)):
        # L cos(qu) = q C_{q-1}^1(cos u)
        exact_vals = q * _ladder_apply(m - 1, q - 1, 1.0, np.cos(us))
        fd_vals = _ladder_fd(lambda u: np.cos(q * u), us, m)
        scale = max(1.0, float(np.max(np.abs(exact_vals))))
        reports.append(_worst_report(
            "cosine_ladder_vs_fd", {"m": m, "q": q}, "u", us,
            exact_vals, fd_vals, tol, scale=scale,
        ))
    return reports


def _check_quadrature_exactness():
    counts = range(1, 11)
    worst_params, worst_errs = [], []
    for count in counts:
        rule = gauss_legendre_rule(count)
        worst_err = 0.0
        worst_deg = 0
        for deg in range(0, 2 * count):
            approx = float(rule.weights @ rule.nodes**deg)
            exact = 0.0 if deg % 2 == 1 else 2.0 / (deg + 1)
            if abs(approx - exact) > worst_err:
                worst_err = abs(approx - exact)
                worst_deg = deg
        worst_params.append({"count": count, "worst_degree": worst_deg})
        worst_errs.append(worst_err)
    return _row_reports("gauss_legendre_exactness", worst_params, worst_errs,
                        [0.0] * len(counts), 1e-13)


def _check_quadrature_substitution():
    rule = gauss_legendre_rule(64)
    ds = (0.0, 0.3, 0.7, 1.2, 1.5)
    pluses = quadrature.integrate_weighted(ds, 0.5, np.sin, rule)
    minuses = quadrature.integrate_weighted(ds, -0.5, np.sin, rule)
    closed_forms = [(math.pi / 4.0) * math.cos(d) ** 2 for d in ds] + [math.pi / 2.0] * len(ds)
    return _row_reports("sqrt_weight_closed_form",
                        [{"d": d, "sign": sign} for sign in ("+1/2", "-1/2") for d in ds],
                        np.concatenate([pluses, minuses]), closed_forms, 1e-12)


def _check_quadrature_doubling():
    tol = 1e-12
    series = thetapsi.PsiSeries(3, (0.5,))

    def psi(u):
        return series((0,), u)[0]

    def gegenbauer(u):
        return np.sin(u) * _gegenbauer_c(4, 1.0, np.cos(u))

    ds = (0.0, 0.35, 0.7, 1.05, 1.4)
    rows = [  # (parameters of each distance, distances, weight exponent, integrand)
        ([{"case": "psi_plus"}], (0.3,), 0.5, psi),
        ([{"case": "gegenbauer_minus"}], (0.7,), -0.5, gegenbauer),
        # the row loop as the integral kernel runs it, one report per distance
        ([{"case": "psi_plus_row", "d": d} for d in ds], ds, 0.5, psi),
    ]
    params, values, extras = [], [], []
    for row_params, row, sign, g in rows:
        res = quadrature.adaptive_integrate_row(row, sign, lambda _, u: g(u),
                                                [[tol] * len(row)])
        for parameters, d, value, nodes in zip(row_params, row, res.value[0].tolist(),
                                               res.nodes[0].tolist()):
            [extra] = quadrature.integrate_weighted([d], sign, g, gauss_legendre_rule(2 * nodes))
            params.append({**parameters, "nodes": nodes})
            values.append(value)
            extras.append(extra)
    return _row_reports("adaptive_doubling_stability", params, values, extras, tol)


def _check_theta_truncation():
    tol = 1e-12
    theta_cases = ((2, 0.3, 0.4), (4, 0.05, 1.0), (6, 0.5, 0.2))
    brutes = [_brute_sum(m, t, 3000, lambda a, q: a * math.cos(q * u))
              for m, t, u in theta_cases]
    psi_cases = ((1, 0.3, 0.7), (3, 0.2, 0.9))
    # L^j cos(qu) = q L^(j-1) C_{q-1}^1(cos u), on theta_{j+1} times the folded exp(j^2 t)
    psi_brutes = [
        math.exp(j * j * t) * _brute_sum(j + 1, t, 2000, lambda a, q: a * math.sin(u) * (
            q * _ladder_apply(j - 1, q - 1, 1.0, math.cos(u))))
        for j, t, u in psi_cases]
    return (_row_reports("theta_truncation_soundness",
                         [{"m": m, "t": t, "u": u} for m, t, u in theta_cases],
                         [_theta_sum(m, t, u) for m, t, u in theta_cases], brutes, tol)
            + _row_reports("psi_truncation_soundness",
                           [{"j": j, "t": t, "u": u} for j, t, u in psi_cases],
                           [thetapsi.PsiSeries(j, (t,))((0,), u)[0] for j, t, u in psi_cases],
                           psi_brutes, tol))


def _check_theta_ladder():
    us = np.linspace(0.2, _HALF_PI - 0.1, 7)
    reports = []
    ts = (0.2, 0.5, 1.0)
    for j in (1, 2, 3):
        for t, exact_vals in zip(ts, thetapsi.PsiSeries(j, ts)(range(len(ts)), us)):
            fd_vals = math.exp(j * j * t) * np.sin(us) * _ladder_fd(
                lambda u: _theta_sum(j + 1, t, u), us, j)
            scale = max(1e-30, float(np.max(np.abs(exact_vals))))
            reports.append(_worst_report(
                "psi_ladder_vs_fd", {"j": j, "t": t}, "u", us,
                exact_vals, fd_vals, 1e-5, scale=scale,
            ))
    return reports


def _check_geometry_volume():
    volumes = [_manifold_volume(s) for s in _SPACES]
    integrals = _radial_integrals(
        lambda rows, r: [geometry.volume_density(_SPACES[i], r) for i in rows],
        [1e-12] * len(_SPACES))
    return _row_reports("volume_density_total", [{"k": s.k, "n": s.n} for s in _SPACES],
                        integrals, volumes, 1e-10, scale=volumes)


def _check_geometry_eigenfunction():
    """The radial law on the space's alpha, beta and lambda_l, the very ones the series sums."""
    rs = np.linspace(0.2, 1.3, 12)
    reports = []
    for space in _SPACES:
        def f(r, space=space):  # one row per degree l = 0..6, from one recurrence
            return _jacobi_p(range(7), space.jacobi_alpha, space.jacobi_beta, np.cos(2.0 * r))

        rows, laplacians = f(rs), geometry.radial_laplacian_fd(space, f, rs, h=5e-4)
        for l, (vals, laplacian) in enumerate(zip(rows, laplacians)):
            lam = space.eigenvalue(l)
            scale = max(1.0, abs(lam) * float(np.max(np.abs(vals))))
            reports.append(_worst_report(
                "radial_eigenfunction_law", {"k": space.k, "n": space.n, "l": l}, "r", rs,
                laplacian, lam * vals, 1e-4, scale=scale,
            ))
    return reports


def _check_geometry_density():
    h = 1e-3
    params, coef_forms, div_forms = [], [], []
    for k in (1, 2):
        for n in (1, 2):
            space = SpaceDescriptor(n=n, k=k)

            def f(r):
                return math.cos(2.0 * r) + 0.25 * math.cos(4.0 * r)

            for r in (0.4, 0.8, 1.2):
                coef_form = geometry.radial_laplacian_fd(space, f, r, h=5e-4)

                def jf_prime(rr):
                    fp = (f(rr + h) - f(rr - h)) / (2.0 * h)
                    return geometry.volume_density(space, rr) * fp

                div_form = (jf_prime(r + h) - jf_prime(r - h)) / (
                    2.0 * h * geometry.volume_density(space, r)
                )
                params.append({"k": k, "n": n, "r": r})
                coef_forms.append(coef_form)
                div_forms.append(div_form)
    return _row_reports("laplacian_density_consistency", params, coef_forms, div_forms, 1e-4,
                        scale=np.maximum(np.abs(coef_forms), 1.0))


_EQUIV_TS = (0.05, 0.2, 0.5, 1.0, 5.0)
_EQUIV_DS = tuple(np.linspace(0.0, 1.5, 11))


def _check_kernels_equivalence():
    params, series, integral = [], [], []
    for s in _SPACES:
        rs, ri = (kernels.unified(s.n, s.k, _EQUIV_TS, _EQUIV_DS, 1e-12, m)
                  for m in kernels.METHODS)
        params.extend({"k": s.k, "n": s.n, "t": t, "d": float(d)}
                      for t in _EQUIV_TS for d in _EQUIV_DS)
        series.append(rs.value.ravel())
        integral.append(ri.value.ravel())
    return _row_reports("representation_equivalence", params, np.concatenate(series),
                        np.concatenate(integral), 1e-8)


def _check_kernels_positivity():
    reports = []
    for s in _SPACES:
        vals = kernels.unified(s.n, s.k, _EQUIV_TS, _EQUIV_DS, 1e-12).value
        i, j = np.unravel_index(np.argmin(vals), vals.shape)  # the first (t, d) at the minimum
        min_val = float(vals[i, j])
        reports.append(_flag_report(
            "kernel_positivity", {"k": s.k, "n": s.n, "t": _EQUIV_TS[i], "d": float(_EQUIV_DS[j])},
            min_val, 0.0, float(not min_val > 0.0),
        ))
    return reports


def _check_kernels_normalization():
    params, integrals = [], []
    for s in _SPACES:
        def fvec(rows, r, s=s):  # one row per time, from one kernel grid
            return (kernels.unified(s.n, s.k, [_EQUIV_TS[i] for i in rows], r, 1e-12).value
                    * geometry.volume_density(s, r))

        params.extend({"k": s.k, "n": s.n, "t": t} for t in _EQUIV_TS)
        integrals.extend(_radial_integrals(fvec, [1e-10] * len(_EQUIV_TS)))
    return _row_reports("kernel_normalization", params, integrals, [1.0] * len(integrals), 1e-8)


def _check_kernels_residual():
    rs = np.linspace(0.2, 1.3, 12)
    ts = (0.2, 0.5, 1.0)
    hts = [1e-4 * t for t in ts]
    params, dts, laps = [], [], []
    for space in _SPACES:
        def e(r, space=space):  # one row per time
            return kernels.unified(space.n, space.k, ts, r, 1e-12).value

        # each time's later and earlier neighbour, in one grid
        shifted = kernels.unified(space.n, space.k,
                                  [s for t, ht in zip(ts, hts) for s in (t + ht, t - ht)],
                                  rs, 1e-12).value
        lap_rows = geometry.radial_laplacian_fd(space, e, rs, h=1e-3)
        for t, ht, later, earlier, lap in zip(ts, hts, shifted[0::2], shifted[1::2], lap_rows):
            dt = (later - earlier) / (2.0 * ht)
            i = int(np.argmax(np.abs(dt - lap) / np.maximum(np.abs(dt), 1.0)))
            params.append({"k": space.k, "n": space.n, "t": t, "r": float(rs[i])})
            dts.append(dt[i])
            laps.append(lap[i])
    return _row_reports("heat_equation_residual", params, dts, laps, 1e-3,
                        scale=np.maximum(np.abs(dts), 1.0))


def _check_kernels_semigroup():
    pairs = ((0.3, 0.3), (0.2, 0.5))
    params, lhss, rhss = [], [], []
    for sp in _SPACES:
        def fvec(rows, r, sp=sp):  # one row per pair (t, s), from one kernel grid
            values = kernels.unified(sp.n, sp.k, [x for i in rows for x in pairs[i]], r,
                                     1e-12).value
            return values[0::2] * values[1::2] * geometry.volume_density(sp, r)

        params.extend({"k": sp.k, "n": sp.n, "t": t, "s": s} for t, s in pairs)
        lhss.extend(_radial_integrals(fvec, [1e-9] * len(pairs)))
        rhss.extend(kernels.unified(sp.n, sp.k, [t + s for t, s in pairs], 0.0,
                                    1e-12).value.tolist())
    return _row_reports("kernel_semigroup", params, lhss, rhss, 1e-6)


def _check_kernels_monotone():
    reports = []
    d = 0.4
    ts = np.linspace(1.0, 2.0, 20)
    for s in _SPACES:
        flat = _stationary_value(s)
        vals = kernels.unified(s.n, s.k, ts, d, 1e-12).value
        inc = np.diff(vals)
        slack = 1e-13 * max(1.0, abs(flat))
        direction = 1.0 if inc[np.argmax(np.abs(inc))] >= 0 else -1.0
        worst = float(np.min(inc * direction))
        # np.maximum keeps a NaN worst, which then fails
        reports.append(_flag_report(
            "kernel_monotone_relaxation", {"k": s.k, "n": s.n, "d": d}, worst, 0.0,
            float(np.maximum(0.0, -worst)), tol=slack,
        ))
    return reports


def _check_kernels_stationary():
    return _row_reports("kernel_stationary_limit", [{"k": s.k, "n": s.n} for s in _SPACES],
                        [kernels.unified(s.n, s.k, 50.0, 0.37, 1e-14).value for s in _SPACES],
                        [_stationary_value(s) for s in _SPACES], 1e-10)


def _check_kernels_trace():
    """The series' multiplicities and heat trace against representation theory alone.

    The paper's m_l = vol P_l(1) times the degree-l weight must equal
    Weyl's dimension on Python ints for l <= 14.  And vol E(t, 0) =
    sum_l m_l exp(-4 l (l + c) t) with Weyl's m_l, by math.fsum over
    l < 40: at t = 0.01 the term at l = 40 is below 1e-24 of the sum on
    every space.  The series is reached through ``unified`` alone.
    """
    ts = (0.01, 0.05, 0.5, 5.0)
    fact = math.factorial
    mismatches, params, traces, sums = [], [], [], []
    for s in _SPACES:
        c, k, kn = s.spectral_offset, s.k, s.k * s.n
        dims = _weyl_dimensions(s, 40)
        mismatches.append(sum((2 * l + c) * fact(l + c - 1) * fact(k - 1) * math.comb(l + kn - 1, l)
                              != dims[l] * fact(l + k - 1) * fact(c) for l in range(15)))
        params.extend({"k": k, "n": s.n, "t": t} for t in ts)
        traces.extend(_manifold_volume(s) * kernels.unified(s.n, k, ts, 0.0, 1e-12).value)
        sums.extend(math.fsum(m * math.exp(-4.0 * l * (l + c) * t) for l, m in enumerate(dims))
                    for t in ts)
    return ([_flag_report("weyl_dimension_multiplicity", {"k": s.k, "n": s.n, "l_max": 14},
                          float(bad), 0.0, float(bad)) for s, bad in zip(_SPACES, mismatches)]
            + _row_reports("heat_trace_weyl", params, traces, sums, 1e-12))


def _check_lemma():
    return [rep for n in _NS for rep in lemma_check(n, range(9), _REP_DS)]


def _check_jacobi_rep():
    """Certify the "2n-2" reading point by point and refute the displayed "2n-1".

    The resolution report passes only if the displayed reading misses
    somewhere, and records its largest relative error.  Its lhs counts the
    readings that hold, "2n-2" by its own reports.
    """
    reports, verdicts = [], []
    for n in _NS:
        reps, verdict = _jacobi_rep_rows(n, range(9), _REP_DS)
        reports.extend(reps)
        verdicts.append(verdict)
    displayed_holds = all(holds for holds, _ in verdicts)
    reports.append(_flag_report(
        "jacobi_sqrt_integral_rep_resolution",
        {"passing_convention": "2n-2", "rejected": ["2n-1"],
         "rejected_max_rel_err": max(worst for _, worst in verdicts)},
        1.0 + displayed_holds, 1.0, float(displayed_holds)))
    return reports


def _check_theta2_grid():
    # worst point per (n, t) over the union of a 50- and a 20-point x grid
    xs = [float(x) for x in sorted({*np.linspace(0.0, _HALF_PI, 50),
                                    *np.linspace(0.0, _HALF_PI, 20)})]
    return [_worst_report("theta_halfinteger_relation", {"n": n, "t": t}, "x", xs,
                          *_theta2_sides(n, t, xs), 1e-13)
            for n in (1, 2, 3) for t in (0.1, 0.5, 2.0)]


_GROUPS = {
    "orthopoly_recurrence": _check_orthopoly_recurrence,
    "orthopoly_endpoint": _check_orthopoly_endpoint,
    "orthopoly_trig": _check_orthopoly_trig,
    "orthopoly_ladder": _check_orthopoly_ladder,
    "quadrature_exactness": _check_quadrature_exactness,
    "quadrature_substitution": _check_quadrature_substitution,
    "quadrature_doubling": _check_quadrature_doubling,
    "theta_truncation": _check_theta_truncation,
    "theta_ladder": _check_theta_ladder,
    # here, not among the kernels_* groups: the forked child runs every
    # second group, and this slot keeps the two shares balanced
    "kernels_trace": _check_kernels_trace,
    "geometry_volume": _check_geometry_volume,
    "geometry_eigenfunction": _check_geometry_eigenfunction,
    "geometry_density": _check_geometry_density,
    "kernels_equivalence": _check_kernels_equivalence,
    "kernels_positivity": _check_kernels_positivity,
    "kernels_normalization": _check_kernels_normalization,
    "kernels_residual": _check_kernels_residual,
    "kernels_semigroup": _check_kernels_semigroup,
    "kernels_monotone": _check_kernels_monotone,
    "kernels_stationary": _check_kernels_stationary,
    "lemma": _check_lemma,
    "jacobi_rep": _check_jacobi_rep,
    "theta2": _check_theta2_grid,
}


def group_names() -> tuple:
    return tuple(_GROUPS)


def _run_share(share: list) -> tuple:
    """Run ``share``, (position, group) pairs, in order: (keyed reports, failure).

    The keyed reports are (sort key, position, report) triples in run
    order.  The failure is None, or (position, exception) of the first
    group that raised; no group after it runs.
    """
    keyed = []
    for pos, fn in share:
        try:
            reports = fn()
        except BaseException as exc:  # SystemExit too: the caller decides what to raise
            return keyed, (pos, exc)
        keyed.extend((r.sort_key(), pos, r) for r in reports)
    return keyed, None


def _run_forked(ours: list, theirs: list) -> tuple:
    """``_run_share`` of ``ours`` here and of ``theirs`` in one forked child, over a pipe.

    The child pickles its outcome into the pipe and ends with ``os._exit``,
    so it never returns into the caller.  The parent always closes its end
    and reaps the child.  A child that dies or sends a short pickle raises
    a RuntimeError naming its exit status.  The failure returned is the
    first of both shares in registration order.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: run both shares here, in registration order
        os.close(read_fd)
        os.close(write_fd)
        return _run_share(sorted(ours + theirs, key=lambda entry: entry[0]))
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(_run_share(theirs), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    status = None
    try:
        with open(read_fd, "rb") as pipe:
            keyed, failure = _run_share(ours)
            data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        if status is None:
            os.waitpid(pid, 0)
    try:
        their_keyed, their_failure = pickle.loads(data)
    except Exception:  # empty or cut short: the child died before it finished sending
        their_keyed = None
    if their_keyed is None:
        raise RuntimeError(f"the self-test worker process exited with status {status} "
                           "without sending its reports back")
    failures = [f for f in (failure, their_failure) if f is not None]
    return keyed + their_keyed, min(failures, key=lambda f: f[0], default=None)


def full_suite(profile: Optional[SuiteProfile] = None) -> list:
    """Run every registered identity check; never raises on a failed identity.

    Every group checks its identities at fixed tolerances.  Reports come
    back in deterministic order (by identity name, then parameters, then
    group registration order, then each group's own order).

    When more than one CPU is usable (``os.sched_getaffinity``, so on
    Linux) and more than one group is selected, the groups run in two
    processes: one forked child takes every second group in registration
    order.  The reports, their order and the error raised are those of
    running the groups one after another here: a group that raises makes
    the suite raise the error of the first failing group in registration
    order (from the child, without its traceback).  On Python 3.12 and
    later ``os.fork`` warns (DeprecationWarning) in a multi-threaded
    process, as one with numpy's OpenBLAS pool is; that case is untested.
    """
    profile = profile or SuiteProfile()
    share = [(pos, fn) for pos, (name, fn) in enumerate(_GROUPS.items())
             if profile.wants_group(name)]
    # os.sched_getaffinity is Linux's; elsewhere (macOS, Windows) the suite runs in one process
    if len(share) > 1 and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
        keyed, failure = _run_forked(share[0::2], share[1::2])
    else:
        keyed, failure = _run_share(share)
    if failure is not None:
        raise failure[1]
    keyed.sort(key=lambda entry: entry[:2])
    return [report for _, _, report in keyed]
