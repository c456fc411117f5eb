"""Tests for Gauss-Legendre rules and the endpoint-regularized integrals."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import adaptive_reference
from projheat import quadrature
from projheat.errors import DomainError, QuadratureConvergenceError
from projheat.quadrature import (
    MAX_NODES,
    adaptive_integrate_row,
    gauss_legendre_rule,
    integrate_weighted,
)


class TestRuleGeneration:
    def test_midpoint_rule(self):
        rule = gauss_legendre_rule(1)
        assert_allclose(rule.nodes, [0.0])
        assert_allclose(rule.weights, [2.0])

    def test_two_point_rule(self):
        # textbook closed form: nodes +-1/sqrt(3), unit weights
        rule = gauss_legendre_rule(2)
        assert_allclose(rule.nodes, [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], rtol=1e-15)
        assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-15)

    def test_three_point_quartic(self):
        rule = gauss_legendre_rule(3)
        assert_allclose(rule.weights @ rule.nodes**4, 0.4, rtol=1e-15)

    @pytest.mark.parametrize("count", range(1, 11))
    def test_polynomial_exactness(self, count):
        rule = gauss_legendre_rule(count)
        for deg in range(2 * count):
            exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
            assert abs(rule.weights @ rule.nodes**deg - exact) <= 1e-14

    @pytest.mark.parametrize("count", [2, 3, 5, 17, 64, 257, 1024, 4096])
    def test_rule_invariants(self, count):
        rule = gauss_legendre_rule(count)
        assert abs(float(np.sum(rule.weights)) - 2.0) <= 1e-13
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert np.all(rule.nodes > -1.0) and np.all(rule.nodes < 1.0)
        # symmetry about the origin is exact by construction
        assert_allclose(rule.nodes, -rule.nodes[::-1], atol=0.0)
        assert_allclose(rule.weights, rule.weights[::-1], atol=0.0)

    @pytest.mark.parametrize("count", [3, 17, 64])
    def test_against_numpy_leggauss(self, count):
        nodes, weights = np.polynomial.legendre.leggauss(count)
        rule = gauss_legendre_rule(count)
        assert_allclose(rule.nodes, nodes, atol=1e-14)
        assert_allclose(rule.weights, weights, atol=1e-14)

    def test_rejects_bad_count(self):
        with pytest.raises(DomainError):
            gauss_legendre_rule(0)


def _hard(u):
    return np.sin(u) / (1.01 + np.cos(37.0 * u))


class TestWeightedIntegration:
    DS = [0.0, 0.3, 0.7, 1.2, 1.5]

    @pytest.mark.parametrize("d", DS)
    def test_plus_half_closed_form(self, d):
        # integral of sqrt(cos^2 d - cos^2 u) sin u over [d, pi/2] = pi/4 cos^2 d
        [val] = integrate_weighted([d], 0.5, np.sin, gauss_legendre_rule(64))
        assert abs(val - 0.25 * math.pi * math.cos(d) ** 2) <= 1e-12

    @pytest.mark.parametrize("d", DS)
    def test_minus_half_closed_form(self, d):
        # integral of sin u / sqrt(cos^2 d - cos^2 u) over [d, pi/2] = pi/2
        [val] = integrate_weighted([d], -0.5, np.sin, gauss_legendre_rule(64))
        assert abs(val - 0.5 * math.pi) <= 1e-12

    @pytest.mark.parametrize("sign", [0.5, -0.5])
    def test_row_equals_one_distance_rows(self, sign):
        rule = gauss_legendre_rule(64)
        row = integrate_weighted(self.DS, sign, np.sin, rule)
        assert row == [integrate_weighted([d], sign, np.sin, rule)[0] for d in self.DS]

    def test_vanishing_interval(self):
        [val] = integrate_weighted([math.pi / 2 - 1e-6], 0.5, lambda u: np.ones_like(u),
                                   gauss_legendre_rule(32))
        assert abs(val) <= 1e-9

    def test_rejects_bad_spec(self):
        rule = gauss_legendre_rule(8)
        for where in (0, 2):
            for bad in (math.pi / 2, -0.1, float("nan")):
                ds = [0.1, 0.4, 0.7]
                ds[where] = bad
                with pytest.raises(DomainError, match="lower limit"):
                    integrate_weighted(ds, 0.5, np.sin, rule)
        for sign in (1.0, 0.0, -1.0):
            with pytest.raises(DomainError, match="weight exponent"):
                integrate_weighted([0.1], sign, np.sin, rule)


class TestAdaptive:
    """Rows of one distance."""

    def test_polynomial_converges_immediately(self):
        def g(u):
            return np.sin(u) * np.cos(u) ** 6

        [res] = adaptive_integrate_row([0.4], 0.5, g, [1e-13])
        [direct] = integrate_weighted([0.4], 0.5, g, gauss_legendre_rule(32))
        assert res.nodes == 32
        assert_allclose(res.value, direct, rtol=1e-14)
        assert res.est_error <= 1e-13

    def test_psi_integrand_doubling_invariant(self):
        from projheat.thetapsi import psi_sum

        def g(u):
            return psi_sum(3, 4, 0.5, u)

        [res] = adaptive_integrate_row([0.3], 0.5, g, [1e-12])
        [bigger] = integrate_weighted([0.3], 0.5, g, gauss_legendre_rule(2 * res.nodes))
        assert abs(res.value - bigger) <= 1e-12

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(QuadratureConvergenceError):
            adaptive_integrate_row([0.2], 0.5, _hard, [1e-30])

    def test_rejects_bad_tolerance(self):
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                adaptive_integrate_row([0.2], 0.5, np.sin, [tol])


class TestAdaptiveRow:
    def test_equals_reference_per_distance(self):
        from projheat.thetapsi import psi_sum

        ds = [0.0, 0.3, 0.7, 1.2, 1.4, 1.5]
        tols = [1e-8, 1e-9, 1e-6, 1e-9, 1e-8, 1e-9]

        def g(u):
            return psi_sum(3, 4, 0.02, u)

        for sign in (0.5, -0.5):
            row = adaptive_integrate_row(ds, sign, g, tols)
            for d, tol, res in zip(ds, tols, row):
                want = adaptive_reference(d, sign, g, tol)
                assert (res.value, res.nodes, res.est_error) == want

    def test_long_row_is_split_into_chunks(self):
        ds = [float(d) for d in np.linspace(0.0, 1.5, 5000)]
        sizes = []

        def g(u):
            sizes.append(u.size)
            return np.sin(u) * np.cos(u) ** 6

        row = adaptive_integrate_row(ds, 0.5, g, [1e-13] * len(ds))
        assert max(sizes) <= quadrature._CALL_NODES
        assert len(sizes) > 2  # more than one call per round
        for d, res in list(zip(ds, row))[::97]:
            want = adaptive_reference(d, 0.5, g, 1e-13)
            assert (res.value, res.nodes, res.est_error) == want

    def test_cap_names_first_failing_distance(self):
        with pytest.raises(QuadratureConvergenceError, match=rf"tol=1e-30 within {MAX_NODES} nodes"):
            adaptive_integrate_row([0.2, 0.5, 0.9], 0.5, _hard, [1.0, 1e-30, 2e-30])

    def test_empty_row(self):
        def g(u):
            raise AssertionError("the integrand of an empty row is never called")

        assert adaptive_integrate_row([], 0.5, g, []) == []

    def test_rejects_bad_row(self):
        def g(u):
            raise AssertionError("a rejected row never calls its integrand")

        for where in (0, 2):
            for bad in (math.pi / 2, -0.1, float("nan")):
                ds = [0.2, 0.4, 0.6]
                ds[where] = bad
                with pytest.raises(DomainError, match="lower limit"):
                    adaptive_integrate_row(ds, 0.5, g, [1e-10] * 3)
        for sign in (1.0, 0.0, -1.0):
            with pytest.raises(DomainError, match="weight exponent"):
                adaptive_integrate_row([0.2], sign, g, [1e-10])
        with pytest.raises(DomainError):
            adaptive_integrate_row([0.2, 0.4], 0.5, g, [1e-10, 0.0])
