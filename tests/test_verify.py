"""Tests for the verification reports and the identity suite."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from projheat.verify import (
    JACOBI_REP_CONVENTIONS,
    SuiteProfile,
    _row_reports,
    _worst_report,
    compare_values,
    full_suite,
    group_names,
    jacobi_rep_check,
    lemma_check,
    theta2_relation_check,
)


def one_entry(lhs, rhs, tol, parameters=None, scale=0.0):
    """The report of a one-entry row."""
    [rep] = _row_reports("x", [parameters or {}], [lhs], [rhs], tol, scale=scale)
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

    def test_json_roundtrip(self):
        [rep] = _row_reports("name", [{"a": 1, "b": 0.5}], [2.0], [2.0], 1e-8)
        data = json.loads(rep.to_json())
        assert data["identity"] == "name"
        assert data["parameters"] == {"a": 1, "b": 0.5}
        assert data["passed"] is True


class TestLemma:
    @pytest.mark.parametrize("d", [0.0, 0.3, 0.7, 1.1, 1.4])
    def test_analytic_case_is_two_pi(self, d):
        # n=1, l=0: the laddered term is the constant 8, so the integral
        # collapses to 8 * (pi/4) = 2 pi, matching the closed form exactly
        [rep] = lemma_check(1, 0, [d])
        assert_allclose(rep.rhs, 2.0 * math.pi, rtol=1e-15)
        assert_allclose(rep.lhs, 2.0 * math.pi, rtol=1e-12)
        assert rep.passed

    @pytest.mark.parametrize("n,l,d", [(1, 1, 0.5), (2, 3, 0.2), (3, 8, 1.4), (2, 0, 0.0)])
    def test_general_cases(self, n, l, d):
        [rep] = lemma_check(n, l, [d], tol=1e-9)
        assert rep.passed, (rep.abs_err, rep.rel_err)

    @pytest.mark.parametrize("n,l", [(1, 0), (2, 3), (3, 8)])
    def test_row_equals_one_distance_rows(self, n, l):
        ds = [0.0, 0.3, 0.7, 1.1, 1.4]
        row = lemma_check(n, l, ds)
        assert [r.parameters["d"] for r in row] == ds
        assert row == [lemma_check(n, l, [d])[0] for d in ds]


class TestJacobiRep:
    def test_shifted_convention_passes(self):
        for n, l, d in ((1, 0, 0.0), (1, 2, 0.7), (2, 1, 0.4), (3, 5, 1.1)):
            [rep] = jacobi_rep_check(n, l, [d], tol=1e-9, convention="2n-2")
            assert rep.passed, rep.parameters

    def test_displayed_convention_fails(self):
        # at n=1, l=0, d=0 the displayed reading compares P_1^(1,0)(1) = 2
        # against an integral worth 1: off by a factor two, not a roundoff
        [rep] = jacobi_rep_check(1, 0, [0.0], convention="2n-1")
        assert not rep.passed
        assert_allclose(rep.lhs, 2.0, rtol=1e-12)
        assert_allclose(rep.rhs, 1.0, rtol=1e-9)

    def test_rejects_unknown_convention(self):
        from projheat.errors import DomainError

        with pytest.raises(DomainError):
            jacobi_rep_check(1, 0, [0.0], convention="2n")

    @pytest.mark.parametrize("convention", ["2n-1", "2n-2"])
    @pytest.mark.parametrize("n,l", [(1, 0), (2, 3), (3, 8)])
    def test_row_equals_one_distance_rows(self, n, l, convention):
        ds = [0.0, 0.3, 0.7, 1.1, 1.4]
        row = jacobi_rep_check(n, l, ds, 1e-8, convention)
        assert [r.parameters["d"] for r in row] == ds
        assert row == [jacobi_rep_check(n, l, [d], 1e-8, convention)[0] for d in ds]

    def test_suite_resolution_names_winner(self):
        reports = full_suite(SuiteProfile(groups=("jacobi_rep",)))
        res = [r for r in reports if r.identity_name == "jacobi_sqrt_integral_rep_resolution"]
        assert len(res) == 1
        assert res[0].passed
        assert res[0].parameters["passing_convention"] == "2n-2"
        assert res[0].parameters["rejected_max_rel_err"] > 1e-3
        assert set(JACOBI_REP_CONVENTIONS) == {"2n-1", "2n-2"}
        # the emitted point reports all carry the winning convention
        points = [r for r in reports if r.identity_name == "jacobi_sqrt_integral_rep"]
        assert points and all(r.parameters["convention"] == "2n-2" for r in points)
        assert all(r.passed for r in points)


class TestThetaRelation:
    @pytest.mark.parametrize("n,t,x", [(1, 0.5, 0.3), (2, 0.1, 0.0), (3, 2.0, 1.0)])
    def test_passes(self, n, t, x):
        rep = theta2_relation_check(n, t, x, tol=1e-11)
        assert rep.passed

    def test_relative_error_is_roundoff_at_large_t(self):
        # at t = 2 theta_6 is ~1e-8 of either side; neither side of the check
        # may be a difference that cancels down to it
        rep = theta2_relation_check(2, 2.0, 0.9937691047069753)
        assert rep.rel_err < 1e-12
        for x in np.linspace(0.0, math.pi / 2, 50):
            assert theta2_relation_check(2, 2.0, float(x)).rel_err < 1e-12

    def test_group_reports_the_worst_point_check(self):
        # each (n, t) report is the first largest-error scalar check on the grid
        xs = sorted({*np.linspace(0.0, math.pi / 2, 50), *np.linspace(0.0, math.pi / 2, 20)})
        expected = []
        for n in (1, 2, 3):
            for t in (0.1, 0.5, 2.0):
                reps = [theta2_relation_check(n, t, float(x), 1e-13) for x in xs]
                expected.append(max(reps, key=lambda r: r.abs_err))
        expected.sort(key=lambda r: r.sort_key())
        assert full_suite(SuiteProfile(groups=("theta2",))) == expected

    def test_both_sides_vanish_at_half_pi(self):
        rep = theta2_relation_check(2, 0.4, math.pi / 2, tol=1e-11)
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
        for expected in ("lemma", "jacobi_rep", "theta2", "kernels_equivalence"):
            assert expected in names
