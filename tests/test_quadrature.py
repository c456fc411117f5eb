"""Tests for Gauss-Legendre rules and the endpoint-regularized integrals."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import adaptive_reference, legendre_and_derivative_reference
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

    @pytest.mark.parametrize("count", [*range(1, 11), *(16 << i for i in range(10))])
    def test_rule_is_the_legendre_recurrence_rule(self, count, monkeypatch):
        # the Gegenbauer step at order 1/2 is Legendre's step, operation for operation,
        # so every rule (the doubling loops run 16 to 8192) is the same bit for bit
        rule = gauss_legendre_rule(count)
        monkeypatch.setattr(quadrature, "_RULE_CACHE", {})
        monkeypatch.setattr(quadrature, "_legendre_and_derivative",
                            legendre_and_derivative_reference)
        reference = gauss_legendre_rule(count)
        assert reference is not rule
        assert rule.nodes.tobytes() == reference.nodes.tobytes()
        assert rule.weights.tobytes() == reference.weights.tobytes()

    def test_rejects_bad_count(self):
        with pytest.raises(DomainError, match="node count must be >= 1, got 0"):
            gauss_legendre_rule(0)

    @pytest.mark.parametrize("count", [2.5, 2.0, np.float64(3.0)])
    def test_rejects_non_integer_count(self, count):
        with pytest.raises(DomainError, match="node count must be an integer"):
            gauss_legendre_rule(count)


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
        assert isinstance(row, np.ndarray) and row.dtype == float
        assert row.tolist() == [integrate_weighted([d], sign, np.sin, rule)[0] for d in self.DS]

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


def _reference_sums(ds, exponent_sign, g, rule):
    """The substitution one distance at a time, each sum one ``rule.weights @ row``."""
    phi = (rule.nodes + 1.0) * (0.25 * math.pi)
    sums = []
    for d in ds:
        c = math.cos(d)
        c_sin_phi = c * np.sin(phi)
        sin_u = np.sqrt(1.0 - c_sin_phi ** 2)
        weight = (c * c) * np.cos(phi) ** 2 if exponent_sign > 0 else 1.0
        row = weight * g(np.arccos(c_sin_phi)) / sin_u
        sums.append(float((0.25 * math.pi) * (rule.weights @ row)))
    return sums


class TestRowSumsBitwise:
    """The row sums are bit for bit the per-distance dot products.

    ``integrate_weighted`` takes each chunk's sums in one ``np.vecdot``;
    the golden files were frozen from one ``rule.weights @ row`` per
    distance.  A numpy build whose ``vecdot`` sums in another order fails
    here, naming the cause before the golden files do.
    """

    DS = [0.0, 0.2, 0.45, 0.7, 0.95, 1.2, 1.45, 1.55]

    @pytest.mark.parametrize("count", [16, 32, 64, 128, 256, 512, 1024, 2048, 4096])
    @pytest.mark.parametrize("sign", [0.5, -0.5])
    def test_equals_per_distance_dot(self, count, sign):
        rule = gauss_legendre_rule(count)
        got = integrate_weighted(self.DS, sign, _hard, rule)
        assert got.tolist() == _reference_sums(self.DS, sign, _hard, rule)

    @pytest.mark.parametrize("count", [16, 1024])
    @pytest.mark.parametrize("sign", [0.5, -0.5])
    def test_equals_per_distance_dot_in_chunks(self, count, sign, monkeypatch):
        # three distances per integrand call: chunks of 3, 3 and 2
        monkeypatch.setattr(quadrature, "_CALL_NODES", 3 * count)
        sizes = []

        def g(u):
            sizes.append(u.size)
            return _hard(u)

        rule = gauss_legendre_rule(count)
        got = integrate_weighted(self.DS, sign, g, rule)
        assert sizes == [3 * count, 3 * count, 2 * count]
        assert got.tolist() == _reference_sums(self.DS, sign, _hard, rule)


def _one_row(g):
    """``g`` of the angles alone, as the integrand of a grid of one row."""
    return lambda rows, u: g(u)


class TestAdaptive:
    """Grids of one row and one distance."""

    def test_polynomial_converges_immediately(self):
        def g(u):
            return np.sin(u) * np.cos(u) ** 6

        [[value]], [[nodes]], [[err]] = adaptive_integrate_row([0.4], 0.5, _one_row(g),
                                                               [[1e-13]])
        [direct] = integrate_weighted([0.4], 0.5, g, gauss_legendre_rule(32))
        assert nodes == 32
        assert_allclose(value, direct, rtol=1e-14)
        assert err <= 1e-13

    def test_psi_integrand_doubling_invariant(self):
        from projheat.thetapsi import PsiSeries

        series = PsiSeries(3, (0.5,))

        def g(u):  # the folded exp(9 t) divided out, for the absolute tolerance
            return series((0,), u)[0] / math.exp(9 * 0.5)

        [[value]], [[nodes]], _ = adaptive_integrate_row([0.3], 0.5, _one_row(g), [[1e-12]])
        [bigger] = integrate_weighted([0.3], 0.5, g, gauss_legendre_rule(2 * int(nodes)))
        assert abs(value - bigger) <= 1e-12

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(QuadratureConvergenceError):
            adaptive_integrate_row([0.2], 0.5, _one_row(_hard), [[1e-30]])

    def test_rejects_bad_tolerance(self):
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                adaptive_integrate_row([0.2], 0.5, _one_row(np.sin), [[tol]])


class TestAdaptiveRow:
    def test_equals_reference_per_distance(self):
        from projheat.thetapsi import PsiSeries

        ds = [0.0, 0.3, 0.7, 1.2, 1.4, 1.5]
        tols = [1e-8, 1e-9, 1e-6, 1e-9, 1e-8, 1e-9]
        series = PsiSeries(3, (0.02,))

        def g(u):
            return series((0,), u)[0]

        for sign in (0.5, -0.5):
            row = adaptive_integrate_row(ds, sign, _one_row(g), [tols])
            for d, tol, *got in zip(ds, tols, *(column[0] for column in row)):
                assert tuple(got) == adaptive_reference(d, sign, g, tol)

    def test_long_row_is_split_into_chunks(self):
        ds = [float(d) for d in np.linspace(0.0, 1.5, 5000)]
        sizes = []

        def g(u):
            sizes.append(u.size)
            return np.sin(u) * np.cos(u) ** 6

        row = adaptive_integrate_row(ds, 0.5, _one_row(g), [[1e-13] * len(ds)])
        assert max(sizes) <= quadrature._CALL_NODES
        assert len(sizes) > 2  # more than one call per round
        for d, *got in list(zip(ds, *(column[0] for column in row)))[::97]:
            assert tuple(got) == adaptive_reference(d, 0.5, g, 1e-13)

    # (rows, nodes) of the first call: all five distances for all three rows, or
    # at a cap of 40 (row, node) pairs one distance for two rows, and one row at 32 nodes
    @pytest.mark.parametrize("cap,first", [(1 << 16, (3, 80)), (40, (2, 16))])
    def test_grid_rows_equal_rows_alone(self, cap, first, monkeypatch):
        # three times of one PsiSeries: 2e-4 needs up to 512 nodes, 0.5 only 32
        from projheat.thetapsi import PsiSeries

        monkeypatch.setattr(quadrature, "_CALL_NODES", cap)
        ts = [0.02, 2e-4, 0.5]
        ds = [0.0, 0.3, 0.7, 1.2, 1.5]
        tols = [[1e-6, 1e-8, 1e-6, 1e-7, 1e-6], [1e-6] * 5, [1e-9, 1e-6, 1e-8, 1e-6, 1e-9]]
        calls = []
        series = PsiSeries(3, ts)

        def g(rows, u):
            calls.append((rows.size, u.size))
            return series(rows, u)

        grid = adaptive_integrate_row(ds, 0.5, g, tols)
        assert len(set(grid.nodes.ravel().tolist())) >= 3
        for t, row_tols, *row in zip(ts, tols, *grid):
            one = PsiSeries(3, (t,))  # the time's row on its own
            for d, tol, *got in zip(ds, row_tols, *row):
                assert tuple(got) == adaptive_reference(d, 0.5, lambda u: one((0,), u)[0], tol)
        assert all(rows * nodes <= cap or rows == 1 for rows, nodes in calls)
        assert calls[0] == first

    def test_cap_names_first_failing_distance(self):
        with pytest.raises(QuadratureConvergenceError, match=rf"tol=1e-30 within {MAX_NODES} nodes"):
            adaptive_integrate_row([0.2, 0.5, 0.9], 0.5, _one_row(_hard),
                                   [[1.0, 1e-30, 2e-30]])
        # in a grid, the first failing pair in row-major order
        with pytest.raises(QuadratureConvergenceError, match=rf"tol=3e-30 within {MAX_NODES}"):
            adaptive_integrate_row([0.2, 0.5], 0.5, lambda rows, u: np.outer(rows + 1.0, _hard(u)),
                                   [[1.0, 1.0], [3e-30, 1.0], [1e-30, 2e-30]])

    def test_empty_row(self):
        def g(rows, u):
            raise AssertionError("the integrand of an empty grid is never called")

        for tols in ([[]], np.empty((0, 2))):
            grid = adaptive_integrate_row([0.1, 0.2][:np.shape(tols)[1]], 0.5, g, tols)
            assert [column.shape for column in grid] == [np.shape(tols)] * 3

    def test_rejects_bad_row(self):
        def g(rows, u):
            raise AssertionError("a rejected row never calls its integrand")

        for where in (0, 2):
            for bad in (math.pi / 2, -0.1, float("nan")):
                ds = [0.2, 0.4, 0.6]
                ds[where] = bad
                with pytest.raises(DomainError, match="lower limit"):
                    adaptive_integrate_row(ds, 0.5, g, [[1e-10] * 3])
        for sign in (1.0, 0.0, -1.0):
            with pytest.raises(DomainError, match="weight exponent"):
                adaptive_integrate_row([0.2], sign, g, [[1e-10]])
        with pytest.raises(DomainError):
            adaptive_integrate_row([0.2, 0.4], 0.5, g, [[1e-10, 1e-10], [1e-10, 0.0]])
        with pytest.raises(DomainError, match="one column per distance"):
            adaptive_integrate_row([0.2, 0.4], 0.5, g, [1e-10, 1e-10])
