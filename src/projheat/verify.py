"""Numerical certification of every identity the kernel formulas rest on.

Each check produces a VerificationReport rather than raising, so the full
suite always completes and doubles as an errata detector: a false
identity shows up as a failed report with the measured discrepancy, not
as a crash.  A report passes when its absolute or its relative error is
within tolerance, which amounts to relative comparison for large values
and absolute comparison near zero.

The one deliberately open question is the first weight exponent in the
square-root integral representation of Jacobi polynomials: the suite
evaluates both candidate readings ("2n-1" and "2n-2") over the whole
parameter grid and emits a resolution report naming the one that is
numerically true.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import geometry, kernels, orthopoly, quadrature, thetapsi
from .errors import DomainError, QuadratureConvergenceError
from .geometry import SpaceDescriptor
from .quadrature import adaptive_integrate_row, gauss_legendre_rule

_HALF_PI = 0.5 * math.pi

#: the two candidate first exponents of the integral-representation identity
JACOBI_REP_CONVENTIONS = ("2n-1", "2n-2")

#: projective indices every per-space group covers
_NS = (1, 2, 3)

#: lower limits at which the lemma and jacobi_rep groups integrate
_REP_DS = (0.0, 0.3, 0.7, 1.1, 1.4)

#: node counts of the radial doubling loop's first rule and of its last
_RADIAL_START = 64
_RADIAL_MAX = 8192


@dataclass(frozen=True)
class VerificationReport:
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
        return (self.identity_name, json.dumps(self.parameters, sort_keys=True, default=str))


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


@dataclass(frozen=True)
class SuiteProfile:
    """Selects the groups run by full_suite: those whose names start with one of ``groups``."""

    groups: Optional[tuple] = None

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


def _ladder_fd(f: Callable[[float], float], u0: float, m: int,
               h: Optional[float] = None) -> float:
    """Iterated -(1/sin u) d/du by nested central differences, Richardson once.

    The step doubles with each nesting level beyond two: nested
    differencing amplifies roundoff by (2h)^-m.
    """
    if h is None:
        h = 1e-3 * (2.0 ** max(0, m - 2))

    def once(step: float) -> float:
        us = u0 + step * np.arange(-m, m + 1, dtype=float)
        vals = np.array([f(v) for v in us], dtype=float)
        for _ in range(m):
            vals = -(vals[2:] - vals[:-2]) / (2.0 * step * np.sin(us[1:-1]))
            us = us[1:-1]
        return float(vals[0])

    return (4.0 * once(0.5 * h) - once(h)) / 3.0


def _radial_integral(fvec: Callable[[np.ndarray], np.ndarray], tol: float) -> float:
    """Doubling Gauss-Legendre integral over (0, pi/2)."""
    prev = None
    count = _RADIAL_START
    while count <= _RADIAL_MAX:
        rule = gauss_legendre_rule(count)
        r = (rule.nodes + 1.0) * (0.25 * math.pi)
        est = (0.25 * math.pi) * float(rule.weights @ np.asarray(fvec(r), dtype=float))
        if prev is not None and abs(est - prev) <= tol:
            return est
        prev = est
        count *= 2
    raise QuadratureConvergenceError(f"radial integral did not converge to {tol}")


# ---------------------------------------------------------------------------
# named identity checks


def lemma_check(n: int, l: int, ds, tol: float = 1e-8) -> list:
    """Square-root-weight integral of a laddered Gegenbauer term vs Jacobi form.

    LHS: integral over [d, pi/2] of sqrt(cos^2 d - cos^2 u)/cos^2 d times
    L^(2n) C_{2l+2n}^1(cos u) sin(u); RHS: 2^(2n-2) pi (l+2n)!/(l+1)!
    times P_l^(2n-1,1)(cos 2d).  One report per distance d of ``ds``,
    all integrated in one doubling loop.
    """
    def g(u):
        return np.sin(u) * orthopoly.ladder_apply(2 * n, 2 * l + 2 * n, 1.0, np.cos(u))

    const = 2.0 ** (2 * n - 2) * math.pi * (math.factorial(l + 2 * n) / math.factorial(l + 1))
    rhss = [const * orthopoly.jacobi_p(l, 2 * n - 1, 1, math.cos(2 * d)) for d in ds]
    cos2s = np.array([math.cos(d) ** 2 for d in ds])
    qtols = [max(1e-13, 1e-11 * abs(rhs)) * cos2 for rhs, cos2 in zip(rhss, cos2s)]
    values = adaptive_integrate_row(ds, 0.5, g, qtols).value
    return _row_reports("gegenbauer_ladder_to_jacobi",
                        [{"n": n, "l": l, "d": float(d)} for d in ds],
                        values / cos2s, rhss, tol)


def jacobi_rep_check(n: int, l: int, ds, tol: float = 1e-8,
                     convention: str = "2n-2") -> list:
    """Inverse-square-root integral representation of Jacobi polynomials.

    RHS: 2 (l+1)! (2n-2)! / (pi (l+2n-1)!) times the integral over
    [d, pi/2] of sin(u) C_{2l+2}^(2n-1)(cos u) / sqrt(cos^2 d - cos^2 u).
    LHS: P_{l+1}^(a, 0)(cos 2d) with a = 2n-1 or 2n-2 per ``convention``;
    exactly one choice makes this an identity, and the suite records which.
    One report per distance d of ``ds``, all integrated in one doubling loop.
    """
    if convention not in JACOBI_REP_CONVENTIONS:
        raise DomainError(f"convention must be one of {JACOBI_REP_CONVENTIONS}")
    alpha = 2 * n - 1 if convention == "2n-1" else 2 * n - 2

    def g(u):
        return np.sin(u) * orthopoly.gegenbauer_c(2 * l + 2, 2 * n - 1, np.cos(u))

    const = 2.0 * math.factorial(l + 1) * math.factorial(2 * n - 2) / (
        math.pi * math.factorial(l + 2 * n - 1)
    )
    scale = max(1.0, orthopoly.jacobi_endpoint(l + 1, alpha))
    qtol = max(1e-13, 1e-11 * scale) / const
    values = adaptive_integrate_row(ds, -0.5, g, [qtol] * len(ds)).value
    return _row_reports("jacobi_sqrt_integral_rep",
                        [{"n": n, "l": l, "d": float(d), "convention": convention} for d in ds],
                        [orthopoly.jacobi_p(l + 1, alpha, 0, math.cos(2 * d)) for d in ds],
                        const * values, tol, scale=scale)


def _theta2_sides(n: int, t: float, xs: list):
    """Both sides of the theta-2 relation over the angles ``xs``: (lhs, rhs) rows.

    theta_{2n+2} is one row call; the harmonics and the classical theta-2
    are summed point by point in scalar ``math``, independently of it.
    """
    harmonics = [sum(math.exp(-4.0 * t * (l + 0.5) ** 2) * math.cos((2 * l + 1) * x)
                     for l in range(n)) for x in xs]
    lhs = thetapsi.theta_sum(2 * n + 2, t, np.asarray(xs, dtype=float)) + harmonics
    rhs = np.array([0.5 * thetapsi.jacobi_theta2_reference(x / math.pi, 4.0 * t / math.pi)
                    for x in xs])
    return lhs, rhs


def theta2_relation_check(n: int, t: float, x: float, tol: float = 1e-10) -> VerificationReport:
    """theta_{2n+2} plus the first n harmonics of half the classical theta-2 vs that half.

    Neither side is a difference, so no side cancels down to roundoff and
    the relative error stays meaningful where theta_{2n+2} itself is tiny.
    """
    [rep] = _row_reports("theta_halfinteger_relation", [{"n": n, "t": t, "x": x}],
                         *_theta2_sides(n, t, [x]), tol)
    return rep


# ---------------------------------------------------------------------------
# suite groups


def _check_orthopoly_recurrence():
    rng = np.random.default_rng(20240611)
    params, ours, exact, scales = [], [], [], []
    for i in range(40):
        l = int(rng.integers(0, 31))
        alpha = float(rng.uniform(-0.5 + 1e-3, 5.0))
        beta = float(rng.uniform(-0.5 + 1e-3, 5.0))
        x = float(rng.uniform(-1.0, 1.0))
        params.append({"sample": i, "l": l, "alpha": alpha, "beta": beta, "x": x})
        ours.append(orthopoly.jacobi_p(l, alpha, beta, x))
        exact.append(_exact_jacobi(l, alpha, beta, x))
        scales.append(max(1.0, orthopoly.jacobi_endpoint(l, max(alpha, beta))))
    return _row_reports("jacobi_recurrence_vs_series", params, ours, exact, 1e-10, scale=scales)


def _check_orthopoly_endpoint():
    cases = [(l, alpha) for alpha in (0, 1, 2, 3, 5) for l in (0, 1, 5, 12, 30)]
    exact = [float(math.comb(l + alpha, l)) for l, alpha in cases]
    return _row_reports("jacobi_endpoint_binomial", [{"l": l, "alpha": a} for l, a in cases],
                        [orthopoly.jacobi_p(l, a, 1, 1.0) for l, a in cases], exact, 1e-12,
                        scale=exact)


def _check_orthopoly_trig():
    thetas = np.linspace(0.01, math.pi - 0.01, 40)
    reports = []
    for l in (1, 2, 5, 20, 50):
        vals = orthopoly.gegenbauer_c(l, 1.0, np.cos(thetas))
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
        def f(u, _l=l, _lam=lam):
            return orthopoly.gegenbauer_c(_l, _lam, math.cos(u))

        exact_vals = orthopoly.ladder_apply(m, l, lam, np.cos(us))
        fd_vals = np.array([_ladder_fd(f, u, m) for u in us])
        scale = max(1.0, float(np.max(np.abs(exact_vals))))
        reports.append(_worst_report(
            "gegenbauer_ladder_vs_fd", {"m": m, "l": l, "lam": lam}, "u", us,
            exact_vals, fd_vals, tol, scale=scale,
        ))
    for m, q in ((1, 3), (2, 5), (3, 5), (3, 8)):
        def f(u, _q=q):
            return math.cos(_q * u)

        # L cos(qu) = q C_{q-1}^1(cos u)
        exact_vals = q * orthopoly.ladder_apply(m - 1, q - 1, 1.0, np.cos(us))
        fd_vals = np.array([_ladder_fd(f, u, m) for u in us])
        scale = max(1.0, float(np.max(np.abs(exact_vals))))
        reports.append(_worst_report(
            "cosine_ladder_vs_fd", {"m": m, "q": q}, "u", us,
            exact_vals, fd_vals, tol, scale=scale,
        ))
    return reports


def _check_quadrature_exactness():
    counts = range(1, 11)
    worst_params, worst_errs, sums = [], [], []
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
        sums.append(float(np.sum(rule.weights)))
    return (_row_reports("gauss_legendre_exactness", worst_params, worst_errs,
                         [0.0] * len(counts), 1e-13)
            + _row_reports("gauss_legendre_weight_sum", [{"count": c} for c in counts], sums,
                           [2.0] * len(counts), 1e-13))


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
    psi = functools.partial(thetapsi.psi_sum, 3, 4, 0.5)

    def gegenbauer(u):
        return np.sin(u) * orthopoly.gegenbauer_c(4, 1.0, np.cos(u))

    ds = (0.0, 0.35, 0.7, 1.05, 1.4)
    rows = [  # (parameters of each distance, distances, weight exponent, integrand)
        ([{"case": "psi_plus"}], (0.3,), 0.5, psi),
        ([{"case": "gegenbauer_minus"}], (0.7,), -0.5, gegenbauer),
        # the row loop as the integral kernel runs it, one report per distance
        ([{"case": "psi_plus_row", "d": d} for d in ds], ds, 0.5, psi),
    ]
    params, values, extras = [], [], []
    for row_params, row, sign, g in rows:
        res = quadrature.adaptive_integrate_row(row, sign, g, [tol] * len(row))
        for parameters, d, value, nodes in zip(row_params, row, res.value.tolist(),
                                               res.nodes.tolist()):
            [extra] = quadrature.integrate_weighted([d], sign, g, gauss_legendre_rule(2 * nodes))
            params.append({**parameters, "nodes": nodes})
            values.append(value)
            extras.append(extra)
    return _row_reports("adaptive_doubling_stability", params, values, extras, tol)


def _check_theta_parity():
    cases = ((2, 0.3, 0.4), (4, 0.5, 1.1), (6, 0.2, 0.8))
    return _row_reports("theta_parity", [{"m": m, "t": t, "u": u} for m, t, u in cases],
                        [thetapsi.theta_sum(m, t, u) for m, t, u in cases],
                        [thetapsi.theta_sum(m, t, -u) for m, t, u in cases], 1e-14)


def _check_theta_truncation():
    tol = thetapsi.DEFAULT_TOL
    theta_cases = ((2, 0.3, 0.4), (4, 0.05, 1.0), (6, 0.5, 0.2))
    brutes = [sum(math.exp(-4.0 * t * (l + 0.5 * (m - 1)) ** 2) * math.cos((2 * l + m - 1) * u)
                  for l in range(3000))
              for m, t, u in theta_cases]
    psi_cases = ((1, 2, 0.3, 0.7), (3, 4, 0.2, 0.9))
    psi_brutes = []
    for j, m, t, u in psi_cases:
        brute = 0.0
        for l in range(2000):
            a = math.exp(-4.0 * t * (l + 0.5 * (m - 1)) ** 2)
            if a == 0.0:
                break  # a only falls with l: every later term is +-0.0, a no-op
            q = 2 * l + m - 1  # L^j cos(qu) = q L^(j-1) C_{q-1}^1(cos u)
            brute += a * math.sin(u) * (q * orthopoly.ladder_apply(j - 1, q - 1, 1.0, math.cos(u)))
        psi_brutes.append(brute)
    return (_row_reports("theta_truncation_soundness",
                         [{"m": m, "t": t, "u": u} for m, t, u in theta_cases],
                         [thetapsi.theta_sum(m, t, u) for m, t, u in theta_cases], brutes, tol)
            + _row_reports("psi_truncation_soundness",
                           [{"j": j, "m": m, "t": t, "u": u} for j, m, t, u in psi_cases],
                           [thetapsi.psi_sum(j, m, t, u) for j, m, t, u in psi_cases],
                           psi_brutes, tol))


def _check_theta_ladder():
    us = np.linspace(0.2, _HALF_PI - 0.1, 7)
    reports = []
    for j in (1, 2, 3):
        for m, t in ((2, 0.5), (4, 0.2), (4, 0.5)):
            def f(u, _m=m, _t=t):
                return thetapsi.theta_sum(_m, _t, u)

            exact_vals = thetapsi.psi_sum(j, m, t, us)
            fd_vals = np.array([math.sin(u) * _ladder_fd(f, float(u), j) for u in us])
            scale = max(1e-30, float(np.max(np.abs(exact_vals))))
            reports.append(_worst_report(
                "psi_ladder_vs_fd", {"j": j, "m": m, "t": t}, "u", us,
                exact_vals, fd_vals, 1e-5, scale=scale,
            ))
    return reports


def _random_point(k: int, rng: np.random.Generator) -> geometry.HomogeneousPoint:
    """A point of P^2(C) (k = 1) or P^2(H) (k = 2) with normal random coordinates."""
    if k == 1:
        coords = [complex(*rng.normal(size=2)) for _ in range(3)]
    else:
        coords = [geometry.Quaternion(*map(float, rng.normal(size=4))) for _ in range(3)]
    return geometry.HomogeneousPoint(field_k=k, coords=tuple(coords))


def _check_geometry_invariance():
    rng = np.random.default_rng(7)
    worsts = []
    for k in (1, 2):
        space = SpaceDescriptor(n=2, k=k)
        worst = 0.0
        for _ in range(25):
            x = _random_point(k, rng)
            y = _random_point(k, rng)
            base = geometry.distance(space, x, y)
            q1 = geometry.random_unit_scalar(k, rng)
            q2 = geometry.random_unit_scalar(k, rng)
            moved = geometry.distance(
                space, geometry.scale_point(x, q1), geometry.scale_point(y, q2)
            )
            worst = max(worst, abs(moved - base), abs(geometry.distance(space, y, x) - base))
        worsts.append(worst)
    return _row_reports("distance_projective_invariance", [{"k": 1}, {"k": 2}], worsts,
                        [0.0, 0.0], 1e-12)


def _check_geometry_volume():
    spaces = [SpaceDescriptor(n=n, k=k) for k in (1, 2) for n in _NS]
    volumes = [geometry.manifold_volume(s) for s in spaces]
    integrals = [_radial_integral(lambda r, s=s: geometry.volume_density(s, r), 1e-12)
                 for s in spaces]
    return _row_reports("volume_density_total", [{"k": s.k, "n": s.n} for s in spaces],
                        integrals, volumes, 1e-10, scale=volumes)


def _check_geometry_eigenfunction():
    rs = np.linspace(0.2, 1.3, 12)
    reports = []
    for k in (1, 2):
        for n in _NS:
            space = SpaceDescriptor(n=n, k=k)
            for l in range(0, 7):
                def f(r, _l=l):
                    return orthopoly.jacobi_p(_l, space.jacobi_alpha, space.jacobi_beta,
                                              np.cos(2.0 * r))

                lam = space.eigenvalue(l)
                vals = f(rs)
                scale = max(1.0, abs(lam) * float(np.max(np.abs(vals))))
                reports.append(_worst_report(
                    "radial_eigenfunction_law", {"k": k, "n": n, "l": l}, "r", rs,
                    geometry.radial_laplacian_fd(space, f, rs, h=5e-4), lam * vals, 1e-4,
                    scale=scale,
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
    for k in (1, 2):
        for n in _NS:
            for t in _EQUIV_TS:
                rs, ri = (kernels.unified(n, k, t, _EQUIV_DS, 1e-12, m) for m in kernels.METHODS)
                params.extend({"k": k, "n": n, "t": t, "d": float(d)} for d in _EQUIV_DS)
                series.append(rs.value)
                integral.append(ri.value)
    return _row_reports("representation_equivalence", params, np.concatenate(series),
                        np.concatenate(integral), 1e-8)


def _check_kernels_positivity():
    reports = []
    for k in (1, 2):
        for n in _NS:
            min_val = math.inf
            argmin = None
            for t in _EQUIV_TS:
                vals, _, _ = kernels.series_values(k, n, t, np.asarray(_EQUIV_DS), 1e-12)
                i = int(np.argmin(vals))
                if vals[i] < min_val:
                    min_val = float(vals[i])
                    argmin = {"t": t, "d": float(_EQUIV_DS[i])}
            reports.append(_flag_report(
                "kernel_positivity", {"k": k, "n": n, **argmin}, min_val, 0.0,
                float(not min_val > 0.0),
            ))
    return reports


def _check_kernels_normalization():
    params, integrals = [], []
    for k in (1, 2):
        for n in _NS:
            space = SpaceDescriptor(n=n, k=k)
            for t in _EQUIV_TS:
                def fvec(r, s=space, tt=t):
                    vals, _, _ = kernels.series_values(s.k, s.n, tt, r, 1e-12)
                    return vals * geometry.volume_density(s, r)

                params.append({"k": k, "n": n, "t": t})
                integrals.append(_radial_integral(fvec, 1e-10))
    return _row_reports("kernel_normalization", params, integrals, [1.0] * len(integrals), 1e-8)


def _check_kernels_residual():
    rs = np.linspace(0.2, 1.3, 12)
    params, dts, laps = [], [], []
    for k in (1, 2):
        for n in _NS:
            space = SpaceDescriptor(n=n, k=k)
            for t in (0.2, 0.5, 1.0):
                def e(r, tt=t):
                    return kernels.series_values(k, n, tt, r, 1e-12)[0]

                ht = 1e-4 * t
                dt = (e(rs, t + ht) - e(rs, t - ht)) / (2.0 * ht)
                lap = geometry.radial_laplacian_fd(space, e, rs, h=1e-3)
                i = int(np.argmax(np.abs(dt - lap) / np.maximum(np.abs(dt), 1.0)))
                params.append({"k": k, "n": n, "t": t, "r": float(rs[i])})
                dts.append(dt[i])
                laps.append(lap[i])
    return _row_reports("heat_equation_residual", params, dts, laps, 1e-3,
                        scale=np.maximum(np.abs(dts), 1.0))


def _check_kernels_semigroup():
    params, lhss, rhss = [], [], []
    for k in (1, 2):
        for n in _NS:
            space = SpaceDescriptor(n=n, k=k)
            for t, s in ((0.3, 0.3), (0.2, 0.5)):
                def fvec(r, sp=space, tt=t, ss=s):
                    a, _, _ = kernels.series_values(sp.k, sp.n, tt, r, 1e-12)
                    b, _, _ = kernels.series_values(sp.k, sp.n, ss, r, 1e-12)
                    return a * b * geometry.volume_density(sp, r)

                params.append({"k": k, "n": n, "t": t, "s": s})
                lhss.append(_radial_integral(fvec, 1e-9))
                rhss.append(kernels.unified(n, k, t + s, 0.0, 1e-12).value)
    return _row_reports("kernel_semigroup", params, lhss, rhss, 1e-6)


def _check_kernels_monotone():
    reports = []
    d = 0.4
    ts = np.linspace(1.0, 2.0, 20)
    for k in (1, 2):
        for n in _NS:
            flat = kernels.stationary_value(SpaceDescriptor(n=n, k=k))
            vals = np.array([kernels.unified(n, k, float(t), d, 1e-12).value for t in ts])
            inc = np.diff(vals)
            slack = 1e-13 * max(1.0, abs(flat))
            direction = 1.0 if inc[np.argmax(np.abs(inc))] >= 0 else -1.0
            worst = float(np.min(inc * direction))
            # np.maximum keeps a NaN worst, which then fails
            reports.append(_flag_report(
                "kernel_monotone_relaxation", {"k": k, "n": n, "d": d}, worst, 0.0,
                float(np.maximum(0.0, -worst)), tol=slack,
            ))
    return reports


def _check_kernels_stationary():
    spaces = [SpaceDescriptor(n=n, k=k) for k in (1, 2) for n in _NS]
    return _row_reports("kernel_stationary_limit", [{"k": s.k, "n": s.n} for s in spaces],
                        [kernels.unified(s.n, s.k, 50.0, 0.37, 1e-14).value for s in spaces],
                        [kernels.stationary_value(s) for s in spaces], 1e-10)


def _check_lemma():
    return [rep for n in _NS for l in range(9) for rep in lemma_check(n, l, _REP_DS, 1e-8)]


def _check_jacobi_rep():
    """Decide the open superscript question and certify the winning reading.

    Both candidate conventions are evaluated over the full grid; only the
    numerically true one is emitted point by point (those reports must all
    pass), while the resolution report names the winner and records how
    badly the rejected reading misses.
    """
    by_convention = {}
    worst_rejected = {}
    for convention in JACOBI_REP_CONVENTIONS:
        reps = [rep for n in _NS for l in range(9)
                for rep in jacobi_rep_check(n, l, _REP_DS, 1e-8, convention)]
        by_convention[convention] = reps
        worst_rejected[convention] = max(r.rel_err for r in reps)
    winners = [c for c, reps in by_convention.items() if all(r.passed for r in reps)]
    resolution = winners[0] if len(winners) == 1 else ("both" if winners else "none")
    reports = list(by_convention[resolution]) if resolution in by_convention else []
    rejected = [c for c in JACOBI_REP_CONVENTIONS if c != resolution]
    reports.append(_flag_report(
        "jacobi_sqrt_integral_rep_resolution",
        {
            "passing_convention": resolution,
            "rejected": rejected,
            "rejected_max_rel_err": max(
                (worst_rejected[c] for c in rejected), default=0.0
            ),
        },
        float(len(winners)), 1.0, float(len(winners) != 1),
    ))
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
    "theta_parity": _check_theta_parity,
    "theta_truncation": _check_theta_truncation,
    "theta_ladder": _check_theta_ladder,
    "geometry_invariance": _check_geometry_invariance,
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


def full_suite(profile: Optional[SuiteProfile] = None) -> list:
    """Run every registered identity check; never raises on a failed identity.

    Every group checks its identities at fixed tolerances.  Reports come
    back in deterministic order (by identity name, then parameters).
    """
    profile = profile or SuiteProfile()
    reports = []
    for name, fn in _GROUPS.items():
        if profile.wants_group(name):
            reports.extend(fn())
    reports.sort(key=lambda r: r.sort_key())
    return reports
