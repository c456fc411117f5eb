"""Tests for the verification reports and the identity suite."""

import ast
import inspect
import json
import math
import os
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import ladder_fd_point
from projheat import kernels, thetapsi, verify
from projheat.errors import QuadratureConvergenceError, TruncationCapError
from projheat.geometry import SpaceDescriptor
from projheat.verify import (
    SuiteProfile,
    _brute_sum,
    _jacobi_rep_rows,
    _ladder_apply,
    _ladder_fd,
    _radial_integrals,
    _row_reports,
    _theta2_sides,
    _theta_sum,
    _worst_report,
    compare_values,
    full_suite,
    group_names,
    lemma_check,
)


def one_entry(lhs, rhs, tol, parameters=None, scale=0.0):
    """The report of a one-entry row."""
    [rep] = _row_reports("x", [parameters or {}], [lhs], [rhs], tol, scale=scale)
    return rep


def theta2_point(n, t, x, tol):
    """The theta-2 relation's report at the one angle x."""
    [rep] = _row_reports("theta_halfinteger_relation", [{"n": n, "t": t, "x": x}],
                         *_theta2_sides(n, t, [x]), tol)
    return rep


class TestReport:
    def test_pass_fail_invariant(self):
        rep = one_entry(1.0, 1.0 + 1e-12, 1e-10)
        assert rep.passed and (rep.abs_err <= rep.tol or rep.rel_err <= rep.tol)
        rep = one_entry(1.0, 2.0, 1e-10)
        assert not rep.passed and rep.abs_err > rep.tol and rep.rel_err > rep.tol

    def test_relative_kicks_in_for_large_values(self):
        # abs error 1e-6 on values of size 1e6 is a 1e-12 relative match
        rep = one_entry(1e6, 1e6 + 1e-6, 1e-10)
        assert rep.passed and rep.rel_err <= 1e-10

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_side_fails_in_either_position(self, bad):
        for lhs, rhs in ((bad, 1.0), (1.0, bad), (bad, bad)):
            rep = one_entry(lhs, rhs, 1e-10)
            assert rep.passed is False, (lhs, rhs, rep)

    def test_array_rule_is_the_report_rule(self):
        # the float rule, the array rule and the one-entry report agree entry by entry
        lhs = np.array([1.0, 1.0, 0.0, 1e6, float("nan"), 1.0])
        rhs = np.array([1.0 + 1e-12, 2.0, 0.0, 1e6 + 1e-6, 1.0, float("nan")])
        abs_err, rel_err, passed = compare_values(lhs, rhs, 1e-10)
        for i, (a, b) in enumerate(zip(lhs.tolist(), rhs.tolist())):
            rep = one_entry(a, b, 1e-10)
            point = compare_values(a, b, 1e-10)
            assert passed[i] == rep.passed == point[2]
            np.testing.assert_equal([abs_err[i], rel_err[i]], [rep.abs_err, rep.rel_err])
            np.testing.assert_equal(point[:2], [rep.abs_err, rep.rel_err])
        assert passed.tolist() == [True, False, True, True, False, False]

    def test_row_reports_are_the_point_reports(self):
        lhs = np.array([1.0, 1.0, 0.0, 1e6, float("nan"), 3.0])
        rhs = np.array([1.0 + 1e-12, 2.0, 0.0, 1e6 + 1e-6, 1.0, 3.0 - 2e-10])
        params = [{"i": i} for i in range(len(lhs))]
        per_entry = [0.0, 5.0, 1e3, 0.0, 5.0, 1e12]
        for scale, scales in ((0.0, [0.0] * len(lhs)), (5.0, [5.0] * len(lhs)),
                              (per_entry, per_entry)):
            row = _row_reports("x", params, lhs, rhs, 1e-10, scale=scale)
            points = [one_entry(a, b, 1e-10, p, s)
                      for p, a, b, s in zip(params, lhs.tolist(), rhs.tolist(), scales)]
            assert [r.to_json() for r in row] == [r.to_json() for r in points]

    def test_worst_report_is_the_first_largest_point_report(self):
        # points 1 and 2 tie on |lhs - rhs|; point 2 has the larger relative error
        xs = np.array([0.1, 0.2, 0.3])
        lhs = np.array([0.1, 100.0, 3.0])
        rhs = np.array([0.2, 100.5, 3.5])
        rep = _worst_report("x", {"a": 1}, "x", xs, lhs, rhs, 1e-10, scale=2.0)
        assert rep == one_entry(100.0, 100.5, 1e-10, {"a": 1, "x": 0.2}, scale=2.0)

    def test_sort_key_is_the_sorted_json_of_the_parameters(self):
        params = {"n": 2, "d": 0.3, "rejected": ["2n-1"], "a": np.float64(1.5)}
        [rep] = _row_reports("name", [params], [2.0], [2.0], 1e-8)
        assert rep.sort_key() == ("name", json.dumps(params, sort_keys=True, default=str))

    def test_json_roundtrip(self):
        [rep] = _row_reports("name", [{"a": 1, "b": 0.5}], [2.0], [2.0], 1e-8)
        data = json.loads(rep.to_json())
        assert data["identity"] == "name"
        assert data["parameters"] == {"a": 1, "b": 0.5}
        assert data["passed"] is True


class TestOracles:
    """The suite's row oracles are their point-by-point forms, bit for bit."""

    US = np.linspace(0.2, math.pi / 2 - 0.2, 9)  # the orthopoly_ladder group's points
    THETA_US = np.linspace(0.2, math.pi / 2 - 0.1, 7)  # the theta_ladder group's points

    @staticmethod
    def assert_bit_identical(row, points):
        assert [v.hex() for v in row.tolist()] == [v.hex() for v in points]

    @pytest.mark.parametrize("m,l,lam", [(1, 4, 1.0), (2, 4, 1.0), (2, 6, 2.0), (3, 9, 1.0),
                                         (4, 12, 1.0)])
    def test_gegenbauer_ladder_fd_row(self, m, l, lam):
        row = _ladder_fd(lambda u: _ladder_apply(0, l, lam, np.cos(u)), self.US, m)
        self.assert_bit_identical(row, [
            ladder_fd_point(lambda u: _ladder_apply(0, l, lam, math.cos(u)), u, m)
            for u in self.US.tolist()])

    @pytest.mark.parametrize("m,q", [(1, 3), (2, 5), (3, 5), (3, 8)])
    def test_cosine_ladder_fd_row(self, m, q):
        row = _ladder_fd(lambda u: np.cos(q * u), self.US, m)
        self.assert_bit_identical(row, [ladder_fd_point(lambda u: math.cos(q * u), u, m)
                                        for u in self.US.tolist()])

    # the theta_ladder group's cases: theta_{j+1}, the series PsiSeries ladders j times
    @pytest.mark.parametrize("m,t,j", [(j + 1, t, j) for j in (1, 2, 3)
                                       for t in (0.2, 0.5, 1.0)])
    def test_theta_ladder_fd_row(self, m, t, j):
        row = np.sin(self.THETA_US) * _ladder_fd(lambda u: _theta_sum(m, t, u),
                                                 self.THETA_US, j)
        self.assert_bit_identical(row, [
            math.sin(u) * ladder_fd_point(lambda v: _theta_sum(m, t, v), u, j)
            for u in self.THETA_US.tolist()])

    @pytest.mark.parametrize("m,t,u", [(2, 0.3, 0.4), (4, 0.05, 1.0), (6, 0.5, 0.2)])
    def test_brute_sum_stops_at_the_full_sum(self, m, t, u):
        # the theta_truncation group's cases: the early stop drops only +-0.0 terms
        full = 0.0
        for l in range(3000):
            full += math.exp(-4.0 * t * (l + 0.5 * (m - 1)) ** 2) * math.cos((2 * l + m - 1) * u)
        calls = []
        brute = _brute_sum(m, t, 3000, lambda a, q: calls.append(q) or a * math.cos(q * u))
        assert brute == full and brute.hex() == full.hex()
        assert len(calls) < 3000


class TestLemma:
    @pytest.mark.parametrize("d", [0.0, 0.3, 0.7, 1.1, 1.4])
    def test_analytic_case_is_two_pi(self, d):
        # n=1, l=0: the laddered term is the constant 8, so the integral
        # collapses to 8 * (pi/4) = 2 pi, matching the closed form exactly
        [rep] = lemma_check(1, [0], [d])
        assert_allclose(rep.rhs, 2.0 * math.pi, rtol=1e-15)
        assert_allclose(rep.lhs, 2.0 * math.pi, rtol=1e-12)
        assert rep.passed

    @pytest.mark.parametrize("n,l,d", [(1, 1, 0.5), (2, 3, 0.2), (3, 8, 1.4), (2, 0, 0.0)])
    def test_general_cases(self, n, l, d):
        [rep] = lemma_check(n, [l], [d])
        assert rep.abs_err <= 1e-9 or rep.rel_err <= 1e-9, (rep.abs_err, rep.rel_err)

    @pytest.mark.parametrize("n,l", [(1, 0), (2, 3), (3, 8)])
    def test_row_equals_one_distance_rows(self, n, l):
        ds = [0.0, 0.3, 0.7, 1.1, 1.4]
        row = lemma_check(n, [l], ds)
        assert [r.parameters["d"] for r in row] == ds
        assert row == [lemma_check(n, [l], [d])[0] for d in ds]

    def test_degrees_as_rows_are_one_degree_calls(self):
        # the higher degrees take more doubling rounds than the lower ones
        ds = [0.0, 0.3, 0.7, 1.1, 1.4]
        for n in (1, 3):
            rows = lemma_check(n, range(9), ds)
            assert [(r.parameters["l"], r.parameters["d"]) for r in rows] == [
                (l, d) for l in range(9) for d in ds]
            assert rows == [rep for l in range(9) for rep in lemma_check(n, [l], ds)]


class TestJacobiRep:
    def test_shifted_convention_passes(self):
        for n, l, d in ((1, 0, 0.0), (1, 2, 0.7), (2, 1, 0.4), (3, 5, 1.1)):
            [rep], _ = _jacobi_rep_rows(n, [l], [d])
            assert rep.abs_err <= 1e-9 or rep.rel_err <= 1e-9, rep.parameters

    def test_displayed_convention_fails(self):
        # at n=1, l=0, d=0 the displayed reading compares P_1^(1,0)(1) = 2
        # against an integral worth 1: off by a factor two, not a roundoff
        [rep], (holds, worst) = _jacobi_rep_rows(1, [0], [0.0])
        assert_allclose(rep.rhs, 1.0, rtol=1e-9)
        assert not holds
        assert worst >= 0.5

    # 2n-2 is checked on its reports, the displayed 2n-1 on its verdict
    @pytest.mark.parametrize("convention", ["2n-1", "2n-2"])
    @pytest.mark.parametrize("n,l", [(1, 0), (2, 3), (3, 8)])
    def test_row_equals_one_distance_rows(self, n, l, convention):
        ds = [0.0, 0.3, 0.7, 1.1, 1.4]
        row, verdict = _jacobi_rep_rows(n, [l], ds)
        ones = [_jacobi_rep_rows(n, [l], [d]) for d in ds]
        if convention == "2n-2":
            assert [r.parameters["d"] for r in row] == ds
            assert row == [reps[0] for reps, _ in ones]
        else:
            assert verdict == (all(holds for _, (holds, _) in ones),
                               max(worst for _, (_, worst) in ones))

    @pytest.mark.parametrize("convention", ["2n-1", "2n-2"])
    def test_degrees_as_rows_are_one_degree_calls(self, convention):
        ds = [0.0, 0.3, 0.7, 1.1, 1.4]
        for n in (1, 3):
            rows, verdict = _jacobi_rep_rows(n, range(9), ds)
            ones = [_jacobi_rep_rows(n, [l], ds) for l in range(9)]
            if convention == "2n-2":
                assert rows == [rep for reps, _ in ones for rep in reps]
            else:
                assert verdict == (all(holds for _, (holds, _) in ones),
                                   max(worst for _, (_, worst) in ones))

    def test_suite_resolution_names_winner(self):
        reports = full_suite(SuiteProfile(groups=("jacobi_rep",)))
        res = [r for r in reports if r.identity_name == "jacobi_sqrt_integral_rep_resolution"]
        assert len(res) == 1
        assert res[0].passed
        assert res[0].parameters["passing_convention"] == "2n-2"
        assert res[0].parameters["rejected"] == ["2n-1"]
        assert res[0].parameters["rejected_max_rel_err"] > 1e-3
        # the point reports certify 2n-2 alone and carry no reading
        points = [r for r in reports if r.identity_name == "jacobi_sqrt_integral_rep"]
        assert len(points) == 3 * 9 * 5
        assert all("convention" not in r.parameters for r in points)
        assert all(r.passed for r in points)

    def test_resolution_fails_if_the_displayed_reading_holds(self, monkeypatch):
        rows = verify._jacobi_rep_rows
        monkeypatch.setattr(verify, "_jacobi_rep_rows",
                            lambda n, ls, ds: (rows(n, ls, ds)[0], (True, 0.0)))
        reports = full_suite(SuiteProfile(groups=("jacobi_rep",)))
        [res] = [r for r in reports if r.identity_name == "jacobi_sqrt_integral_rep_resolution"]
        assert not res.passed
        assert (res.lhs, res.rhs) == (2.0, 1.0)
        assert all(r.passed for r in reports if r is not res)


class TestRadialIntegrals:
    """The radial row loop gives each integrand what it gives alone."""

    FS = (lambda r: np.sin(r) ** 2,  # smooth: converges on the second round
          lambda r: np.exp(-400.0 * (r - 0.7) ** 2),  # sharp: needs more rounds
          lambda r: np.cos(30.0 * r) ** 2)
    TOLS = (1e-12, 1e-12, 1e-10)

    def test_rows_are_single_rows(self):
        calls = []

        def fvec(rows, r):
            calls.extend(rows)
            return [self.FS[i](r) for i in rows]

        rows = _radial_integrals(fvec, list(self.TOLS))
        singles = [_radial_integrals(lambda rows, r, f=f: [f(r)], [tol])[0]
                   for f, tol in zip(self.FS, self.TOLS)]
        assert rows == singles
        rounds = [calls.count(i) for i in range(len(self.FS))]
        assert len(set(rounds)) > 1, rounds  # the rows converge on different rounds

    def test_a_row_that_never_converges_raises(self):
        # the second integrand grows with the node count, so its estimates never settle
        fs = (np.sin, lambda r: np.full(r.size, float(r.size)))
        with pytest.raises(QuadratureConvergenceError, match="converge to 1e-09"):
            _radial_integrals(lambda rows, r: [fs[i](r) for i in rows], [1e-12, 1e-9])


#: (k, n, t) whose series weights overflow a float at d = 0 (ROADMAP item 1(d)): cpn n = 150-171
#: at t = 0.05, 167-171 at 0.5 and 169-171 at 5; hpn n = 75-85 at 0.05, 84-85 at 0.5 and at 5
SERIES_WEIGHTS_OVERFLOW = frozenset(
    [(1, n, 0.05) for n in range(150, 172)] + [(1, n, 0.5) for n in range(167, 172)]
    + [(1, n, 5.0) for n in range(169, 172)] + [(2, n, 0.05) for n in range(75, 86)]
    + [(2, n, t) for n in (84, 85) for t in (0.5, 5.0)])


class TestKernelsTrace:
    """The kernels_trace group: Weyl's dimensions against the series' weights and trace."""

    def test_weyl_dimensions_of_the_first_representations(self):
        # Sp(3) for hpn n = 2 and SU(4) for cpn n = 3; 14 and 15 are the familiar ones
        assert verify._weyl_dimensions(SpaceDescriptor(n=2, k=2), 5) == [1, 14, 90, 385, 1274]
        assert verify._weyl_dimensions(SpaceDescriptor(n=3, k=1), 5) == [1, 15, 84, 300, 825]

    def test_fails_with_a_wrong_eigenvalue(self, monkeypatch):
        # the series decays by the space's eigenvalue; the trace's exponent is the group's own
        monkeypatch.setattr(SpaceDescriptor, "eigenvalue",
                            lambda self, l: -4.0 * l * (l + self.spectral_offset + 1))
        reports = full_suite(SuiteProfile(groups=("kernels_trace",)))
        assert {r.identity_name for r in reports if not r.passed} == {"heat_trace_weyl"}

    def test_fails_with_a_wrong_dimension(self, monkeypatch):
        weyl = verify._weyl_dimensions

        def off_by_one_at_3(space, count):
            dims = weyl(space, count)
            dims[3] += 1
            return dims

        monkeypatch.setattr(verify, "_weyl_dimensions", off_by_one_at_3)
        reports = full_suite(SuiteProfile(groups=("kernels_trace",)))
        failed = [r for r in reports if not r.passed]
        assert {r.identity_name for r in failed} == {"weyl_dimension_multiplicity",
                                                    "heat_trace_weyl"}
        assert all(r.lhs == 1.0 for r in failed if r.identity_name == "weyl_dimension_multiplicity")

    @staticmethod
    def integral_trace_errors(space):
        """Relative errors of vol E(t, 0) by the integral against Weyl's sum, at t = 0.05, 0.5, 5.

        t = 0.01 stays out: the integral does not yet return there on every space.
        """
        ts, c = (0.05, 0.5, 5.0), space.spectral_offset
        dims = verify._weyl_dimensions(space, 40)
        sums = [math.fsum(m * math.exp(-4.0 * l * (l + c) * t) for l, m in enumerate(dims))
                for t in ts]
        traces = verify._manifold_volume(space) * kernels.unified(
            space.n, space.k, ts, 0.0, 1e-12, "integral").value
        return [abs(trace - exact) / exact for trace, exact in zip(traces.tolist(), sums)]

    @pytest.mark.parametrize("space", verify._SPACES, ids=lambda s: f"k{s.k}_n{s.n}")
    def test_integral_trace_against_weyl(self, space):
        # the one check of the integral that does not go through the series
        assert max(self.integral_trace_errors(space)) <= 1e-12

    def test_integral_trace_fails_with_scaled_theta_weights(self, monkeypatch):
        weights = thetapsi._weights
        monkeypatch.setattr(thetapsi, "_weights",
                            lambda *args: [w * (1 + 1e-9) for w in weights(*args)])
        for space in verify._SPACES:
            assert max(self.integral_trace_errors(space)) > 1e-12

    @staticmethod
    def series_trace_sweep() -> dict:
        """(k, n, t) -> relative error of vol E(t, 0) by the series against Weyl's sum.

        Every accepted index, at t = 0.05, 0.5, 5 and tol 1e-12.  A call that
        raises TruncationCapError gives its message in place of the error.
        """
        sweep = {}
        for k, top in ((1, 171), (2, 85)):
            for n in range(1, top + 1):
                space = SpaceDescriptor(n=n, k=k)
                c, dims = space.spectral_offset, verify._weyl_dimensions(space, 60)
                for t in (0.05, 0.5, 5.0):
                    try:
                        value = kernels.unified(n, k, t, 0.0, 1e-12).value
                    except TruncationCapError as exc:
                        sweep[k, n, t] = str(exc)
                        continue
                    exact = math.fsum(m * math.exp(-4.0 * l * (l + c) * t)
                                      for l, m in enumerate(dims))
                    sweep[k, n, t] = abs(verify._manifold_volume(space) * value - exact) / exact
        return sweep

    def test_series_trace_over_the_whole_index_range(self):
        # the tolerance tightens to est_error once est_error counts roundoff
        sweep = self.series_trace_sweep()
        refused = {key: msg for key, msg in sweep.items() if isinstance(msg, str)}
        assert set(refused) == SERIES_WEIGHTS_OVERFLOW
        assert all(msg.startswith("spectral series weights overflow floating point")
                   for msg in refused.values())
        assert {key: err for key, err in sweep.items()
                if key not in refused and not err <= 1e-12} == {}

    def test_series_trace_fails_with_a_wrong_eigenvalue(self, monkeypatch):
        # at t = 0.05 the l = 1 term still shows at every index that returns
        monkeypatch.setattr(SpaceDescriptor, "eigenvalue",
                            lambda self, l: -4.0 * l * (l + self.spectral_offset + 1))
        errors = [err for (k, n, t), err in self.series_trace_sweep().items()
                  if t == 0.05 and not isinstance(err, str)]
        assert len(errors) == 149 + 74 and min(errors) > 1e-12


class TestThetaRelation:
    @pytest.mark.parametrize("n,t,x", [(1, 0.5, 0.3), (2, 0.1, 0.0), (3, 2.0, 1.0)])
    def test_passes(self, n, t, x):
        rep = theta2_point(n, t, x, 1e-11)
        assert rep.abs_err <= 1e-11 or rep.rel_err <= 1e-11

    def test_relative_error_is_roundoff_at_large_t(self):
        # at t = 2 theta_6 is ~1e-8 of either side; neither side of the check
        # may be a difference that cancels down to it
        rep = theta2_point(2, 2.0, 0.9937691047069753, 1e-10)
        assert rep.rel_err < 1e-12
        for x in np.linspace(0.0, math.pi / 2, 50):
            assert theta2_point(2, 2.0, float(x), 1e-10).rel_err < 1e-12

    def test_group_reports_the_worst_point_check(self):
        # each (n, t) report is the first largest-error scalar check on the grid
        xs = sorted({*np.linspace(0.0, math.pi / 2, 50), *np.linspace(0.0, math.pi / 2, 20)})
        expected = []
        for n in (1, 2, 3):
            for t in (0.1, 0.5, 2.0):
                reps = [theta2_point(n, t, float(x), 1e-13) for x in xs]
                expected.append(max(reps, key=lambda r: r.abs_err))
        expected.sort(key=lambda r: r.sort_key())
        assert full_suite(SuiteProfile(groups=("theta2",))) == expected

    def test_both_sides_vanish_at_half_pi(self):
        rep = theta2_point(2, 0.4, math.pi / 2, 1e-11)
        assert abs(rep.lhs) <= 1e-12 and abs(rep.rhs) <= 1e-12 and rep.passed


class TestSuite:
    def test_group_filter(self):
        reports = full_suite(SuiteProfile(groups=("theta2",)))
        assert reports
        assert {r.identity_name for r in reports} == {"theta_halfinteger_relation"}
        # two independent summations: their discrepancies are roundoff-sized
        # but never exactly zero on this grid, so the check is not a tautology
        assert all(r.abs_err > 0 for r in reports)

    def test_deterministic_order(self):
        a = full_suite(SuiteProfile(groups=("quadrature_substitution",)))
        b = full_suite(SuiteProfile(groups=("quadrature_substitution",)))
        assert [r.sort_key() for r in a] == [r.sort_key() for r in b]
        assert [r.sort_key() for r in a] == sorted(r.sort_key() for r in a)

    def test_group_names_registered(self):
        names = group_names()
        for expected in ("lemma", "jacobi_rep", "theta2", "kernels_equivalence", "kernels_trace"):
            assert expected in names

    def test_profile_refuses_a_bare_string(self):
        # each character of "kernels" would be a prefix, and "l" selects lemma
        with pytest.raises(TypeError, match=r"write groups=\('kernels',\)"):
            SuiteProfile(groups="kernels")
        reports = full_suite(SuiteProfile(groups=["kernels_stationary"]))
        assert reports and {r.identity_name for r in reports} == {"kernel_stationary_limit"}


def _cpus(monkeypatch, count):
    """Make full_suite see ``count`` usable CPUs, so the one- or two-process run is forced."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _suite_lines(monkeypatch, cpus, profile=None):
    _cpus(monkeypatch, cpus)
    return [r.to_json() for r in full_suite(profile)]


def _outcome(monkeypatch, cpus, profile):
    """(class, message) of what full_suite raises with ``cpus`` usable CPUs."""
    _cpus(monkeypatch, cpus)
    with pytest.raises(BaseException) as info:
        full_suite(profile)
    return type(info.value), str(info.value)


#: the first four groups: positions 0 and 2 run in the caller, 1 and 3 in the child
_ORTHOPOLY = SuiteProfile(groups=("orthopoly",))


class TestTwoProcesses:
    """The suite's groups split over a forked child give the one-process reports and errors."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("profile", [None, SuiteProfile(groups=("kernels",))],
                             ids=["all", "kernels"])
    def test_same_reports_in_the_same_order(self, monkeypatch, profile):
        one = _suite_lines(monkeypatch, 1, profile)
        assert one and _suite_lines(monkeypatch, 2, profile) == one

    def test_equal_keys_keep_the_one_process_order(self, monkeypatch):
        # positions 1 (child) and 2 (caller) emit reports that sort equal
        def group(tag):
            return lambda: _row_reports("tie", [{}, {}], [tag, tag + 1], [tag, tag + 1], 0.0)

        monkeypatch.setitem(verify._GROUPS, "orthopoly_endpoint", group(10.0))
        monkeypatch.setitem(verify._GROUPS, "orthopoly_trig", group(20.0))
        one = _suite_lines(monkeypatch, 1, _ORTHOPOLY)
        ties = [json.loads(line)["lhs"] for line in one if '"identity":"tie"' in line]
        assert ties == [10.0, 11.0, 20.0, 21.0]
        assert _suite_lines(monkeypatch, 2, _ORTHOPOLY) == one

    @pytest.mark.parametrize("raising", [("orthopoly_endpoint",), ("orthopoly_trig",),
                                         ("orthopoly_endpoint", "orthopoly_trig"),
                                         ("orthopoly_trig", "orthopoly_ladder")],
                             ids=["child", "caller", "child-first", "caller-first"])
    def test_first_failing_group_raises(self, monkeypatch, raising):
        for i, name in enumerate(raising):
            error = (ValueError, KeyError)[i]

            def fail(name=name, error=error):
                raise error(f"{name} failed")

            monkeypatch.setitem(verify._GROUPS, name, fail)
        expected = (ValueError, f"{raising[0]} failed")
        assert _outcome(monkeypatch, 1, _ORTHOPOLY) == expected
        assert _outcome(monkeypatch, 2, _ORTHOPOLY) == expected

    def test_system_exit_in_the_child_share_returns_once(self, monkeypatch, tmp_path):
        # the child ends in os._exit: the caller's code after full_suite runs in one process
        log = tmp_path / "pids"
        monkeypatch.setitem(verify._GROUPS, "orthopoly_endpoint", lambda: sys.exit(3))
        _cpus(monkeypatch, 2)
        try:
            full_suite(_ORTHOPOLY)
        except SystemExit as exc:
            code = exc.code
        finally:  # each process that returns or raises out of full_suite adds a line
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
        assert code == 3
        assert log.read_text() == f"{os.getpid()}\n"

    @pytest.mark.parametrize("status", [7, 1], ids=["dies", "unpicklable-error"])
    def test_child_that_sends_no_reports_names_its_status(self, monkeypatch, status):
        class Unpicklable(Exception):
            def __init__(self):
                super().__init__()
                self.hook = lambda: None  # pickling the child's outcome fails part way

        def fail():
            if status == 1:
                raise Unpicklable()
            os._exit(status)

        monkeypatch.setitem(verify._GROUPS, "orthopoly_ladder", fail)
        _cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=f"exited with status {status} without sending"):
            full_suite(_ORTHOPOLY)

    def test_failed_fork_runs_every_group_here(self, monkeypatch):
        one = _suite_lines(monkeypatch, 1, _ORTHOPOLY)

        def no_process():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", no_process)
        assert _suite_lines(monkeypatch, 2, _ORTHOPOLY) == one

    def test_one_group_never_forks(self, monkeypatch, capsys):
        from projheat import cli

        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        _cpus(monkeypatch, 2)
        assert cli.main(["selftest", "--only", "lemma"]) == cli.EXIT_OK
        assert "gegenbauer_ladder_to_jacobi" in capsys.readouterr().out


def _source_names(fn) -> set:
    """Every bare name and every attribute name in the source of the module-level ``fn``."""
    tree = ast.parse(inspect.getsource(fn))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


class TestOwners:
    """The suite reaches the kernels through ``unified`` alone, and its oracles own their limits."""

    def test_kernels_only_through_unified(self):
        tree = ast.parse(inspect.getsource(verify))
        named = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "kernels"}
        assert named == {"unified", "METHODS"}
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "kernels"]

    @pytest.mark.parametrize("module,names", [
        ("thetapsi", {"PsiSeries"}),
        ("orthopoly", {"jacobi_step", "gegenbauer_step"}),
    ], ids=["thetapsi", "orthopoly"])
    def test_production_names_it_uses(self, module, names):
        # whole polynomials and one-time series are the suite's own; it runs the kernels' steps
        tree = ast.parse(inspect.getsource(verify))
        named = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == module}
        assert named == names
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == module]

    @pytest.mark.parametrize("fn", [verify._theta_sum, verify._jacobi_theta2_reference,
                                    verify._check_theta_truncation], ids=lambda f: f.__name__)
    def test_theta_oracles_own_tolerance_and_cap(self, fn):
        # the production series' limits may change without moving the oracles'
        assert not _source_names(fn) & {"DEFAULT_TOL", "TERM_CAP"}
