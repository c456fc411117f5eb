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
from fractions import Fraction
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


def make_report(name: str, parameters: dict, lhs: float, rhs: float, tol: float,
                scale: float = 0.0) -> VerificationReport:
    """Build a report by ``compare_values``; ``scale`` optionally widens the relative denominator.

    Passing an explicit scale makes polynomial-magnitude comparisons
    meaningful near zeros of the polynomial.
    """
    abs_err, rel_err, passed = compare_values(lhs, rhs, tol, scale)
    return VerificationReport(
        identity_name=name, parameters=parameters, lhs=lhs, rhs=rhs,
        abs_err=float(abs_err), rel_err=float(rel_err), tol=tol,
        passed=bool(passed),  # a plain bool, for json
    )


def _worst_report(name: str, parameters: dict, key: str, xs: np.ndarray,
                  lhs: np.ndarray, rhs: np.ndarray, tol: float,
                  scale: float = 0.0) -> VerificationReport:
    """One report at the point of ``xs`` where |lhs - rhs| is largest.

    That point's coordinate is recorded under ``key`` after ``parameters``.
    """
    worst = int(np.argmax(np.abs(lhs - rhs)))
    return make_report(name, {**parameters, key: float(xs[worst])},
                       float(lhs[worst]), float(rhs[worst]), tol, scale=scale)


def _flag_report(name: str, parameters: dict, passed: bool, lhs: float, rhs: float,
                 tol: float = 0.5) -> VerificationReport:
    # boolean outcome dressed in the report shape (abs_err 0/1 keeps the
    # passed <-> error<=tol invariant intact)
    return VerificationReport(
        identity_name=name, parameters=parameters, lhs=lhs, rhs=rhs,
        abs_err=0.0 if passed else 1.0, rel_err=0.0 if passed else 1.0,
        tol=tol, passed=passed,
    )


@dataclass(frozen=True)
class SuiteProfile:
    """Selects and retunes the checks run by full_suite."""

    tol_override: Optional[float] = None
    ks: tuple = (1, 2)
    groups: Optional[tuple] = None

    def tol(self, default: float) -> float:
        return default if self.tol_override is None else self.tol_override

    def wants_group(self, name: str) -> bool:
        if self.groups is None:
            return True
        return any(name.startswith(g) for g in self.groups)


# ---------------------------------------------------------------------------
# independent oracles used only inside checks


def _exact_jacobi(l: int, alpha: float, beta: float, x: float) -> float:
    """Jacobi polynomial by its terminating series in exact rational arithmetic.

    Floats convert to Fractions exactly, so this is an exact evaluation of
    the polynomial at the given binary-rational point; it shares nothing
    with the production recurrence.
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


def _series_scalar(space: SpaceDescriptor, t: float, r: float, tol: float = 1e-12) -> float:
    vals, _, _ = kernels.series_values(space.k, space.n, t, np.asarray([r]), tol)
    return float(vals[0])


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
    cos2s = [math.cos(d) ** 2 for d in ds]
    qtols = [max(1e-13, 1e-11 * abs(rhs)) * cos2 for rhs, cos2 in zip(rhss, cos2s)]
    values = adaptive_integrate_row(ds, 0.5, g, qtols).value.tolist()
    return [make_report("gegenbauer_ladder_to_jacobi", {"n": n, "l": l, "d": float(d)},
                        value / cos2, rhs, tol)
            for d, rhs, cos2, value in zip(ds, rhss, cos2s, values)]


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
    values = adaptive_integrate_row(ds, -0.5, g, [qtol] * len(ds)).value.tolist()
    return [make_report("jacobi_sqrt_integral_rep",
                        {"n": n, "l": l, "d": float(d), "convention": convention},
                        orthopoly.jacobi_p(l + 1, alpha, 0, math.cos(2 * d)), const * value, tol,
                        scale=scale)
            for d, value in zip(ds, values)]


def theta2_relation_check(n: int, t: float, x: float, tol: float = 1e-10) -> VerificationReport:
    """theta_{2n+2} plus the first n harmonics of half the classical theta-2 vs that half.

    Neither side is a difference, so no side cancels down to roundoff and
    the relative error stays meaningful where theta_{2n+2} itself is tiny.
    """
    harmonics = sum(
        math.exp(-4.0 * t * (l + 0.5) ** 2) * math.cos((2 * l + 1) * x) for l in range(n)
    )
    lhs = thetapsi.theta_sum(2 * n + 2, t, x) + harmonics
    rhs = 0.5 * thetapsi.jacobi_theta2_reference(x / math.pi, 4.0 * t / math.pi)
    return make_report(
        "theta_halfinteger_relation", {"n": n, "t": t, "x": x}, lhs, rhs, tol
    )


# ---------------------------------------------------------------------------
# suite groups


def _check_orthopoly_recurrence(profile: SuiteProfile):
    tol = profile.tol(1e-10)
    rng = np.random.default_rng(20240611)
    reports = []
    for i in range(40):
        l = int(rng.integers(0, 31))
        alpha = float(rng.uniform(-0.5 + 1e-3, 5.0))
        beta = float(rng.uniform(-0.5 + 1e-3, 5.0))
        x = float(rng.uniform(-1.0, 1.0))
        ours = orthopoly.jacobi_p(l, alpha, beta, x)
        exact = _exact_jacobi(l, alpha, beta, x)
        scale = max(1.0, orthopoly.jacobi_endpoint(l, max(alpha, beta)))
        reports.append(make_report(
            "jacobi_recurrence_vs_series",
            {"sample": i, "l": l, "alpha": alpha, "beta": beta, "x": x},
            ours, exact, tol, scale=scale,
        ))
    return reports


def _check_orthopoly_endpoint(profile: SuiteProfile):
    tol = profile.tol(1e-12)
    reports = []
    for alpha in (0, 1, 2, 3, 5):
        for l in (0, 1, 5, 12, 30):
            ours = orthopoly.jacobi_p(l, alpha, 1, 1.0)
            exact = float(math.comb(l + alpha, l))
            reports.append(make_report(
                "jacobi_endpoint_binomial", {"l": l, "alpha": alpha},
                ours, exact, tol, scale=exact,
            ))
    return reports


def _check_orthopoly_trig(profile: SuiteProfile):
    tol = profile.tol(1e-10)
    thetas = np.linspace(0.01, math.pi - 0.01, 40)
    reports = []
    for l in (1, 2, 5, 20, 50):
        vals = orthopoly.gegenbauer_c(l, 1.0, np.cos(thetas))
        ref = np.sin((l + 1) * thetas) / np.sin(thetas)
        reports.append(_worst_report(
            "gegenbauer_dirichlet_ratio", {"l": l}, "theta", thetas, vals, ref, tol,
        ))
    return reports


def _check_orthopoly_ladder(profile: SuiteProfile):
    tol = profile.tol(1e-5)
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


def _check_quadrature_exactness(profile: SuiteProfile):
    tol = profile.tol(1e-13)
    reports = []
    for count in range(1, 11):
        rule = gauss_legendre_rule(count)
        worst_err = 0.0
        worst_deg = 0
        for deg in range(0, 2 * count):
            approx = float(rule.weights @ rule.nodes**deg)
            exact = 0.0 if deg % 2 == 1 else 2.0 / (deg + 1)
            if abs(approx - exact) > worst_err:
                worst_err = abs(approx - exact)
                worst_deg = deg
        reports.append(make_report(
            "gauss_legendre_exactness", {"count": count, "worst_degree": worst_deg},
            worst_err, 0.0, tol,
        ))
        reports.append(make_report(
            "gauss_legendre_weight_sum", {"count": count},
            float(np.sum(rule.weights)), 2.0, profile.tol(1e-13),
        ))
    return reports


def _check_quadrature_substitution(profile: SuiteProfile):
    tol = profile.tol(1e-12)
    reports = []
    rule = gauss_legendre_rule(64)
    ds = (0.0, 0.3, 0.7, 1.2, 1.5)
    pluses = quadrature.integrate_weighted(ds, 0.5, np.sin, rule)
    minuses = quadrature.integrate_weighted(ds, -0.5, np.sin, rule)
    for d, plus, minus in zip(ds, pluses, minuses):
        reports.append(make_report(
            "sqrt_weight_closed_form", {"d": d, "sign": "+1/2"},
            plus, (math.pi / 4.0) * math.cos(d) ** 2, tol,
        ))
        reports.append(make_report(
            "sqrt_weight_closed_form", {"d": d, "sign": "-1/2"},
            minus, math.pi / 2.0, tol,
        ))
    return reports


def _check_quadrature_doubling(profile: SuiteProfile):
    tol = profile.tol(1e-12)
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
    reports = []
    for row_params, row, sign, g in rows:
        res = quadrature.adaptive_integrate_row(row, sign, g, [tol] * len(row))
        for parameters, d, value, nodes in zip(row_params, row, res.value.tolist(),
                                               res.nodes.tolist()):
            [extra] = quadrature.integrate_weighted([d], sign, g, gauss_legendre_rule(2 * nodes))
            reports.append(make_report("adaptive_doubling_stability",
                                       {**parameters, "nodes": nodes}, value, float(extra), tol))
    return reports


def _check_theta_parity(profile: SuiteProfile):
    tol = profile.tol(1e-14)
    reports = []
    for m, t, u in ((2, 0.3, 0.4), (4, 0.5, 1.1), (6, 0.2, 0.8)):
        lhs = thetapsi.theta_sum(m, t, u)
        rhs = thetapsi.theta_sum(m, t, -u)
        reports.append(make_report("theta_parity", {"m": m, "t": t, "u": u}, lhs, rhs, tol))
    return reports


def _check_theta_truncation(profile: SuiteProfile):
    tol = profile.tol(thetapsi.DEFAULT_TOL)
    reports = []
    for m, t, u in ((2, 0.3, 0.4), (4, 0.05, 1.0), (6, 0.5, 0.2)):
        auto = thetapsi.theta_sum(m, t, u)
        brute = sum(
            math.exp(-4.0 * t * (l + 0.5 * (m - 1)) ** 2) * math.cos((2 * l + m - 1) * u)
            for l in range(3000)
        )
        reports.append(make_report(
            "theta_truncation_soundness", {"m": m, "t": t, "u": u}, auto, brute, tol,
        ))
    for j, m, t, u in ((1, 2, 0.3, 0.7), (3, 4, 0.2, 0.9)):
        auto = thetapsi.psi_sum(j, m, t, u)
        brute = 0.0
        for l in range(2000):
            a = math.exp(-4.0 * t * (l + 0.5 * (m - 1)) ** 2)
            if a == 0.0:
                break  # a only falls with l: every later term is +-0.0, a no-op
            q = 2 * l + m - 1  # L^j cos(qu) = q L^(j-1) C_{q-1}^1(cos u)
            brute += a * math.sin(u) * (q * orthopoly.ladder_apply(j - 1, q - 1, 1.0, math.cos(u)))
        reports.append(make_report(
            "psi_truncation_soundness", {"j": j, "m": m, "t": t, "u": u}, auto, brute, tol,
        ))
    return reports


def _check_theta_ladder(profile: SuiteProfile):
    tol = profile.tol(1e-5)
    us = np.linspace(0.2, _HALF_PI - 0.1, 7)
    reports = []
    for j in (1, 2, 3):
        for m, t in ((2, 0.5), (4, 0.2), (4, 0.5)):
            def f(u, _m=m, _t=t):
                return thetapsi.theta_sum(_m, _t, u)

            exact_vals = np.array([thetapsi.psi_sum(j, m, t, float(u)) for u in us])
            fd_vals = np.array([math.sin(u) * _ladder_fd(f, float(u), j) for u in us])
            scale = max(1e-30, float(np.max(np.abs(exact_vals))))
            reports.append(_worst_report(
                "psi_ladder_vs_fd", {"j": j, "m": m, "t": t}, "u", us,
                exact_vals, fd_vals, tol, scale=scale,
            ))
    return reports


def _random_point(k: int, rng: np.random.Generator) -> geometry.HomogeneousPoint:
    """A point of P^2(C) (k = 1) or P^2(H) (k = 2) with normal random coordinates."""
    if k == 1:
        coords = [complex(*rng.normal(size=2)) for _ in range(3)]
    else:
        coords = [geometry.Quaternion(*map(float, rng.normal(size=4))) for _ in range(3)]
    return geometry.HomogeneousPoint(field_k=k, coords=tuple(coords))


def _check_geometry_invariance(profile: SuiteProfile):
    tol = profile.tol(1e-12)
    rng = np.random.default_rng(7)
    reports = []
    for k in profile.ks:
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
        reports.append(make_report(
            "distance_projective_invariance", {"k": k}, worst, 0.0, tol,
        ))
    return reports


def _check_geometry_volume(profile: SuiteProfile):
    tol = profile.tol(1e-10)
    reports = []
    for k in profile.ks:
        for n in _NS:
            space = SpaceDescriptor(n=n, k=k)
            integral = _radial_integral(
                lambda r, s=space: geometry.volume_density(s, r), 1e-12
            )
            reports.append(make_report(
                "volume_density_total", {"k": k, "n": n},
                integral, geometry.manifold_volume(space), tol,
                scale=geometry.manifold_volume(space),
            ))
    return reports


def _check_geometry_eigenfunction(profile: SuiteProfile):
    tol = profile.tol(1e-4)
    rs = np.linspace(0.2, 1.3, 12)
    reports = []
    for k in profile.ks:
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
                    geometry.radial_laplacian_fd(space, f, rs, h=5e-4), lam * vals, tol,
                    scale=scale,
                ))
    return reports


def _check_geometry_density(profile: SuiteProfile):
    tol = profile.tol(1e-4)
    reports = []
    h = 1e-3
    for k in profile.ks:
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
                reports.append(make_report(
                    "laplacian_density_consistency", {"k": k, "n": n, "r": r},
                    coef_form, div_form, tol,
                    scale=max(1.0, abs(coef_form)),
                ))
    return reports


_EQUIV_TS = (0.05, 0.2, 0.5, 1.0, 5.0)
_EQUIV_DS = tuple(np.linspace(0.0, 1.5, 11))


def _check_kernels_equivalence(profile: SuiteProfile):
    tol = profile.tol(1e-8)
    reports = []
    for k in profile.ks:
        for n in _NS:
            for t in _EQUIV_TS:
                series, integral = (kernels.unified(n, k, t, _EQUIV_DS, 1e-12, m)
                                    for m in kernels.METHODS)
                for d, s, i in zip(_EQUIV_DS, series.value.tolist(), integral.value.tolist()):
                    reports.append(make_report(
                        "representation_equivalence",
                        {"k": k, "n": n, "t": t, "d": float(d)},
                        s, i, tol,
                    ))
    return reports


def _check_kernels_positivity(profile: SuiteProfile):
    reports = []
    for k in profile.ks:
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
                "kernel_positivity", {"k": k, "n": n, **argmin}, min_val > 0.0,
                min_val, 0.0,
            ))
    return reports


def _check_kernels_normalization(profile: SuiteProfile):
    tol = profile.tol(1e-8)
    reports = []
    for k in profile.ks:
        for n in _NS:
            space = SpaceDescriptor(n=n, k=k)
            for t in _EQUIV_TS:
                def fvec(r, s=space, tt=t):
                    vals, _, _ = kernels.series_values(s.k, s.n, tt, r, 1e-12)
                    return vals * geometry.volume_density(s, r)

                integral = _radial_integral(fvec, 1e-10)
                reports.append(make_report(
                    "kernel_normalization", {"k": k, "n": n, "t": t}, integral, 1.0, tol,
                ))
    return reports


def _check_kernels_residual(profile: SuiteProfile):
    tol = profile.tol(1e-3)
    rs = np.linspace(0.2, 1.3, 12)
    reports = []
    for k in profile.ks:
        for n in _NS:
            space = SpaceDescriptor(n=n, k=k)
            for t in (0.2, 0.5, 1.0):
                def e(r, tt=t):
                    return kernels.series_values(k, n, tt, r, 1e-12)[0]

                ht = 1e-4 * t
                dt = (e(rs, t + ht) - e(rs, t - ht)) / (2.0 * ht)
                lap = geometry.radial_laplacian_fd(space, e, rs, h=1e-3)
                i = int(np.argmax(np.abs(dt - lap) / np.maximum(np.abs(dt), 1.0)))
                reports.append(make_report(
                    "heat_equation_residual", {"k": k, "n": n, "t": t, "r": float(rs[i])},
                    float(dt[i]), float(lap[i]), tol, scale=max(abs(float(dt[i])), 1.0),
                ))
    return reports


def _check_kernels_semigroup(profile: SuiteProfile):
    tol = profile.tol(1e-6)
    reports = []
    for k in profile.ks:
        for n in _NS:
            space = SpaceDescriptor(n=n, k=k)
            for t, s in ((0.3, 0.3), (0.2, 0.5)):
                def fvec(r, sp=space, tt=t, ss=s):
                    a, _, _ = kernels.series_values(sp.k, sp.n, tt, r, 1e-12)
                    b, _, _ = kernels.series_values(sp.k, sp.n, ss, r, 1e-12)
                    return a * b * geometry.volume_density(sp, r)

                lhs = _radial_integral(fvec, 1e-9)
                rhs = _series_scalar(space, t + s, 0.0)
                reports.append(make_report(
                    "kernel_semigroup", {"k": k, "n": n, "t": t, "s": s}, lhs, rhs, tol,
                ))
    return reports


def _check_kernels_monotone(profile: SuiteProfile):
    reports = []
    d = 0.4
    ts = np.linspace(1.0, 2.0, 20)
    for k in profile.ks:
        for n in _NS:
            space = SpaceDescriptor(n=n, k=k)
            flat = kernels.stationary_value(space)
            vals = np.array([_series_scalar(space, float(t), d) for t in ts])
            inc = np.diff(vals)
            slack = 1e-13 * max(1.0, abs(flat))
            direction = 1.0 if inc[np.argmax(np.abs(inc))] >= 0 else -1.0
            worst = float(np.min(inc * direction))
            reports.append(VerificationReport(
                identity_name="kernel_monotone_relaxation",
                parameters={"k": k, "n": n, "d": d},
                lhs=worst, rhs=0.0,
                abs_err=max(0.0, -worst), rel_err=max(0.0, -worst),
                tol=slack, passed=worst >= -slack,
            ))
    return reports


def _check_kernels_stationary(profile: SuiteProfile):
    tol = profile.tol(1e-10)
    reports = []
    for k in profile.ks:
        for n in _NS:
            space = SpaceDescriptor(n=n, k=k)
            val = _series_scalar(space, 50.0, 0.37, tol=1e-14)
            reports.append(make_report(
                "kernel_stationary_limit", {"k": k, "n": n},
                val, kernels.stationary_value(space), tol,
            ))
    return reports


def _check_lemma(profile: SuiteProfile):
    tol = profile.tol(1e-8)
    return [rep for n in _NS for l in range(9) for rep in lemma_check(n, l, _REP_DS, tol)]


def _check_jacobi_rep(profile: SuiteProfile):
    """Decide the open superscript question and certify the winning reading.

    Both candidate conventions are evaluated over the full grid; only the
    numerically true one is emitted point by point (those reports must all
    pass), while the resolution report names the winner and records how
    badly the rejected reading misses.
    """
    tol = profile.tol(1e-8)
    by_convention = {}
    worst_rejected = {}
    for convention in JACOBI_REP_CONVENTIONS:
        reps = [rep for n in _NS for l in range(9)
                for rep in jacobi_rep_check(n, l, _REP_DS, tol, convention)]
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
        len(winners) == 1,
        float(len(winners)), 1.0,
    ))
    return reports


def _check_theta2_grid(profile: SuiteProfile):
    # worst point per (n, t) over the union of a 50- and a 20-point x grid
    tol = profile.tol(1e-13)
    xs = sorted({*np.linspace(0.0, _HALF_PI, 50), *np.linspace(0.0, _HALF_PI, 20)})
    reports = []
    for n in (1, 2, 3):
        for t in (0.1, 0.5, 2.0):
            worst = None
            for x in xs:
                rep = theta2_relation_check(n, t, float(x), tol)
                if worst is None or rep.abs_err > worst.abs_err:
                    worst = rep
            reports.append(worst)
    return reports


_GROUPS = {
    "orthopoly_recurrence": (_check_orthopoly_recurrence, None),
    "orthopoly_endpoint": (_check_orthopoly_endpoint, None),
    "orthopoly_trig": (_check_orthopoly_trig, None),
    "orthopoly_ladder": (_check_orthopoly_ladder, None),
    "quadrature_exactness": (_check_quadrature_exactness, None),
    "quadrature_substitution": (_check_quadrature_substitution, None),
    "quadrature_doubling": (_check_quadrature_doubling, None),
    "theta_parity": (_check_theta_parity, None),
    "theta_truncation": (_check_theta_truncation, None),
    "theta_ladder": (_check_theta_ladder, None),
    "geometry_invariance": (_check_geometry_invariance, None),
    "geometry_volume": (_check_geometry_volume, None),
    "geometry_eigenfunction": (_check_geometry_eigenfunction, None),
    "geometry_density": (_check_geometry_density, None),
    "kernels_equivalence": (_check_kernels_equivalence, None),
    "kernels_positivity": (_check_kernels_positivity, None),
    "kernels_normalization": (_check_kernels_normalization, None),
    "kernels_residual": (_check_kernels_residual, None),
    "kernels_semigroup": (_check_kernels_semigroup, None),
    "kernels_monotone": (_check_kernels_monotone, None),
    "kernels_stationary": (_check_kernels_stationary, None),
    "lemma": (_check_lemma, 2),
    "jacobi_rep": (_check_jacobi_rep, 1),
    "theta2": (_check_theta2_grid, None),
}


def group_names() -> tuple:
    return tuple(_GROUPS)


def full_suite(profile: Optional[SuiteProfile] = None) -> list:
    """Run every registered identity check; never raises on a failed identity.

    Groups tied to one coordinate field are skipped when the profile
    excludes that field.  Reports come back in deterministic order (by
    identity name, then parameters).
    """
    profile = profile or SuiteProfile()
    reports = []
    for name, (fn, required_k) in _GROUPS.items():
        if not profile.wants_group(name):
            continue
        if required_k is not None and required_k not in profile.ks:
            continue
        reports.extend(fn(profile))
    reports.sort(key=lambda r: r.sort_key())
    return reports
