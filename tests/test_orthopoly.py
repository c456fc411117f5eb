"""Tests for the Jacobi and Gegenbauer recurrence steps and the ladder operator.

The steps live in ``orthopoly``; they are tested through the whole
polynomials and the closed-form ladder that ``verify`` builds on them.
"""

import math
import random

import numpy as np
import pytest
from numpy.testing import assert_allclose

from projheat.errors import DomainError
from projheat.verify import _gegenbauer_c as gegenbauer_c
from projheat.verify import _jacobi_endpoint as jacobi_endpoint
from projheat.verify import _jacobi_p as jacobi_p
from projheat.verify import _ladder_apply as ladder_apply

from helpers import (
    gegenbauer_series_exact,
    jacobi_series_exact,
    jacobi_series_fraction,
    ladder_fd,
)

US = np.linspace(0.2, math.pi / 2 - 0.2, 9)


class TestJacobi:
    def test_degree_zero_is_one(self):
        assert jacobi_p(0, 1, 1, 0.3) == 1.0

    def test_degree_one_closed_form(self):
        # P_1^(1,1)(x) = 2x; oracle value frozen from the series definition
        assert jacobi_series_exact(1, 1.0, 1.0, 0.25) == 0.5
        assert_allclose(jacobi_p(1, 1, 1, 0.25), 0.5, rtol=1e-15)

    def test_endpoint_value_integer_alpha(self):
        # P_5^(3,0)(1) = binom(8, 5) = 56
        assert jacobi_series_exact(5, 3.0, 0.0, 1.0) == 56.0
        assert_allclose(jacobi_p(5, 3, 0, 1.0), 56.0, rtol=1e-13)

    def test_endpoint_identity_sweep(self):
        for alpha in (0, 1, 2, 4):
            for l in (0, 1, 3, 7, 15, 30):
                assert_allclose(jacobi_p(l, alpha, 1, 1.0), math.comb(l + alpha, l), rtol=1e-12)
                assert_allclose(jacobi_endpoint(l, alpha), math.comb(l + alpha, l), rtol=1e-12)

    def test_recurrence_matches_series_definition(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            l = int(rng.integers(0, 31))
            alpha = float(rng.uniform(-0.5 + 1e-3, 5.0))
            beta = float(rng.uniform(-0.5 + 1e-3, 5.0))
            x = float(rng.uniform(-1.0, 1.0))
            ours = jacobi_p(l, alpha, beta, x)
            exact = jacobi_series_exact(l, alpha, beta, x)
            # relative to the polynomial's scale on [-1, 1] (endpoint max)
            scale = max(1.0, jacobi_endpoint(l, max(alpha, beta)))
            assert abs(ours - exact) <= 1e-10 * scale

    def test_vectorized_evaluation(self):
        x = np.linspace(-1, 1, 7)
        vals = jacobi_p(3, 0.5, 0.5, x)
        assert vals.shape == x.shape
        for xi, vi in zip(x, vals):
            assert_allclose(vi, jacobi_p(3, 0.5, 0.5, float(xi)))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jacobi_p(2, 1, 1, 1.5)
        with pytest.raises(DomainError):
            jacobi_p(-1, 1, 1, 0.3)
        with pytest.raises(DomainError):
            jacobi_p(2, -0.6, 0, 0.3)
        with pytest.raises(DomainError):
            jacobi_p(2, 0, -0.5, 0.3)

    @pytest.mark.parametrize("a,b", [(math.inf, 1.0), (1.0, math.inf)])
    def test_infinite_exponent_rejected(self, a, b):
        with pytest.raises(DomainError, match="weight exponents must exceed -1/2"):
            jacobi_p(2, a, b, 0.3)

    @pytest.mark.parametrize("l", [2.5, 2.0, [1, 2.5], np.float64(3.0), np.array([1.0, 2.0])],
                             ids=["half", "whole_float", "row", "numpy_float", "float_row"])
    def test_non_integer_degree_rejected(self, l):
        with pytest.raises(DomainError, match="degree must be an integer"):
            jacobi_p(l, 1.0, 1.0, 0.3)

    def test_numpy_integer_degrees_pass(self):
        assert jacobi_p(np.int64(3), 1.0, 1.0, 0.3) == jacobi_p(3, 1.0, 1.0, 0.3)
        assert jacobi_p(np.arange(4), 1.0, 1.0, 0.3).tolist() == [
            jacobi_p(l, 1.0, 1.0, 0.3) for l in range(4)]

    def test_nan_point_rejected(self):
        with pytest.raises(DomainError):
            jacobi_p(2, 1, 1, float("nan"))
        with pytest.raises(DomainError):
            jacobi_p(2, 1, 1, np.array([0.1, np.nan]))

    def test_roundoff_slack_inside_tolerance(self):
        # values like cos(pi) land at -1 - eps and must be accepted
        jacobi_p(4, 1, 1, -1.0 - 1e-13)


class TestExactSeriesOracle:
    """The self-test's integer-arithmetic series is the Fraction series, bit for bit."""

    @staticmethod
    def assert_bit_identical(cases):
        for case in cases:
            # float.hex tells -0.0 from 0.0, which == does not
            assert jacobi_series_exact(*case).hex() == jacobi_series_fraction(*case).hex(), case

    def test_selftest_samples(self):
        rng = random.Random(20240611)  # the orthopoly_recurrence group's draws
        self.assert_bit_identical([
            (rng.randrange(31), rng.uniform(-0.5 + 1e-3, 5.0),
             rng.uniform(-0.5 + 1e-3, 5.0), rng.uniform(-1.0, 1.0))
            for _ in range(40)
        ])

    def test_random_cases(self):
        rng = np.random.default_rng(8)
        self.assert_bit_identical([
            (int(rng.integers(0, 41)), float(rng.uniform(-0.5, 6.0)),
             float(rng.uniform(-0.5, 6.0)), float(rng.uniform(-1.0, 1.0)))
            for _ in range(500)
        ])

    def test_edge_cases(self):
        self.assert_bit_identical([
            (l, alpha, beta, x)
            for l in (0, 1, 2, 13, 40)
            for x in (-1.0, -0.0, 0.0, 1.0, 2.0**-60, -0.75)
            for alpha, beta in ((0.0, 0.0), (0, 0), (5.999, -0.499), (-0.4999, 0.1), (3, 1))
        ])
        assert jacobi_series_exact(0, 0.0, 0.0, -1.0) == 1.0
        assert jacobi_series_exact(40, 0.0, 0.0, 1.0) == 1.0  # Legendre at 1
        assert jacobi_series_exact(40, 0.0, 0.0, -1.0) == 1.0  # (-1)^40


class TestGegenbauer:
    def test_degree_zero_is_one(self):
        assert gegenbauer_c(0, 1.0, 0.7) == 1.0

    def test_degree_two_at_zero(self):
        # C_2^1(x) = 4x^2 - 1; also sin(3 theta)/sin(theta) at theta = pi/2
        assert_allclose(gegenbauer_c(2, 1.0, 0.0), -1.0, rtol=1e-15)

    def test_trig_ratio_example(self):
        val = gegenbauer_c(3, 1.0, math.cos(0.4))
        assert_allclose(val, math.sin(1.6) / math.sin(0.4), rtol=1e-14)

    def test_trig_identity_sweep(self):
        thetas = np.linspace(0.01, math.pi - 0.01, 60)
        for l in (1, 2, 5, 17, 50):
            vals = gegenbauer_c(l, 1.0, np.cos(thetas))
            ref = np.sin((l + 1) * thetas) / np.sin(thetas)
            assert np.max(np.abs(vals - ref)) <= 1e-10

    def test_recurrence_matches_series_definition(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            l = int(rng.integers(0, 21))
            lam = float(rng.uniform(0.25, 6.0))
            x = float(rng.uniform(-1.0, 1.0))
            ours = gegenbauer_c(l, lam, x)
            exact = gegenbauer_series_exact(l, lam, x)
            scale = max(1.0, abs(gegenbauer_series_exact(l, lam, 1.0)))
            assert abs(ours - exact) <= 1e-10 * scale

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gegenbauer_c(2, 1.0, -1.2)
        with pytest.raises(DomainError):
            gegenbauer_c(2, 0.0, 0.3)
        with pytest.raises(DomainError):
            gegenbauer_c(-3, 1.0, 0.3)
        with pytest.raises(DomainError):
            gegenbauer_c(2, 1.0, float("nan"))

    def test_infinite_order_rejected(self):
        with pytest.raises(DomainError, match="order must be positive"):
            gegenbauer_c(2, math.inf, 0.3)


class TestLadder:
    def test_identity_operator(self):
        x = np.cos(US)
        assert np.all(ladder_apply(0, 4, 1.0, x) == gegenbauer_c(4, 1.0, x))

    def test_two_applications(self):
        # L^2 C_4^1 = 2^2 (1)(2) C_2^3
        assert ladder_apply(2, 4, 1.0, 0.3) == 8.0 * gegenbauer_c(2, 3.0, 0.3)

    def test_rising_factorial_scale(self):
        # the scale 2^m (lam)_m: (1)_4 = 24, (0.5)_0 = 1, (2.5)_3 = 2.5 * 3.5 * 4.5
        assert ladder_apply(4, 6, 1.0, 0.3) == 16.0 * 24.0 * gegenbauer_c(2, 5.0, 0.3)
        assert ladder_apply(0, 3, 0.5, 0.3) == gegenbauer_c(3, 0.5, 0.3)
        assert_allclose(ladder_apply(3, 5, 2.5, 0.3),
                        8.0 * 2.5 * 3.5 * 4.5 * gegenbauer_c(2, 5.5, 0.3), rtol=1e-15)

    def test_annihilation(self):
        assert ladder_apply(3, 2, 1.0, 0.3) == 0.0
        zeros = ladder_apply(3, 2, 1.0, np.array([0.1, 0.2]))
        assert zeros.shape == (2,) and np.all(zeros == 0.0)

    @pytest.mark.parametrize("m,l,lam", [(1, 4, 1.0), (2, 4, 1.0), (2, 6, 2.0),
                                         (3, 9, 1.0), (4, 12, 1.0), (4, 8, 1.5)])
    def test_against_finite_differences(self, m, l, lam):
        exact = ladder_apply(m, l, lam, np.cos(US))
        fd = ladder_fd(lambda u: gegenbauer_c(l, lam, np.cos(u)), US, m)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(exact - fd)) <= 1e-5 * scale

    @pytest.mark.parametrize("m,l,match", [
        (1.5, 3, "ladder count must be an integer"),
        (2.0, 3, "ladder count must be an integer"),
        (np.float64(1.0), 3, "ladder count must be an integer"),
        (1, 3.5, "degree must be an integer"),
    ], ids=["half", "whole_float", "numpy_float", "degree"])
    def test_non_integer_count_rejected(self, m, l, match):
        with pytest.raises(DomainError, match=match):
            ladder_apply(m, l, 1.0, 0.3)

    def test_infinite_order_rejected(self):
        with pytest.raises(DomainError, match="order must be positive"):
            ladder_apply(1, 2, math.inf, 0.3)

    def test_numpy_integer_count_passes(self):
        assert ladder_apply(np.int64(2), np.int64(4), 1.0, 0.3) == ladder_apply(2, 4, 1.0, 0.3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ladder_apply(-1, 4, 1.0, 0.3)
        with pytest.raises(DomainError):
            ladder_apply(1, -1, 1.0, 0.3)
        with pytest.raises(DomainError):
            ladder_apply(1, 4, 0.0, 0.3)
        # the evaluation point is checked even where the image is zero
        with pytest.raises(DomainError):
            ladder_apply(3, 2, 1.0, 1.5)
        with pytest.raises(DomainError):
            ladder_apply(3, 2, 1.0, float("nan"))


class TestCosineLadder:
    """L^m cos(qu) = q L^(m-1) C_{q-1}^1(cos u), since L cos(qu) = q C_{q-1}^1(cos u)."""

    def test_single_application(self):
        # L cos(3u) = 3 sin(3u)/sin(u) = 3 C_2^1(cos u)
        x = np.cos(US)
        assert np.all(3 * ladder_apply(0, 2, 1.0, x) == 3.0 * gegenbauer_c(2, 1.0, x))
        assert_allclose(3 * ladder_apply(0, 2, 1.0, x), 3.0 * np.sin(3 * US) / np.sin(US),
                        rtol=1e-14)

    def test_annihilation(self):
        # L^2 cos(u) = 0
        assert 1 * ladder_apply(1, 0, 1.0, 0.3) == 0.0

    def test_triple_application(self):
        # L^3 cos(5u) = 5 * 2^2 * 2! * C_2^3
        x = np.cos(US)
        assert np.all(5 * ladder_apply(2, 4, 1.0, x) == 40.0 * gegenbauer_c(2, 3.0, x))

    @pytest.mark.parametrize("m,q", [(1, 3), (2, 5), (3, 5), (3, 8), (4, 9)])
    def test_against_finite_differences(self, m, q):
        exact = q * ladder_apply(m - 1, q - 1, 1.0, np.cos(US))
        fd = ladder_fd(lambda u: np.cos(q * u), US, m)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(exact - fd)) <= 1e-5 * scale

    def test_domain_errors(self):
        # L^m cos(qu) needs m >= 1 and q >= 1: L^0 and cos(0u) reach negative arguments
        with pytest.raises(DomainError):
            3 * ladder_apply(0 - 1, 3 - 1, 1.0, 0.3)
        with pytest.raises(DomainError):
            0 * ladder_apply(1 - 1, 0 - 1, 1.0, 0.3)


class TestRowsOfDegrees:
    """A row of degrees gives one row per degree, each its one-degree call, from one recurrence."""

    DEGREES = [5, 0, 3, 3, 9, 1]  # out of order, repeated, and degree 0

    @staticmethod
    def assert_rows(rows, singles, x):
        assert rows.shape == (len(singles),) + np.shape(x)
        for row, single in zip(rows, singles):
            assert np.all(row == single)

    @pytest.mark.parametrize("x", [0.3, np.cos(US)], ids=["scalar", "array"])
    def test_jacobi(self, x):
        self.assert_rows(jacobi_p(self.DEGREES, 2.5, 1.0, x),
                         [jacobi_p(l, 2.5, 1.0, x) for l in self.DEGREES], x)

    @pytest.mark.parametrize("x", [0.3, np.cos(US)], ids=["scalar", "array"])
    def test_gegenbauer(self, x):
        self.assert_rows(gegenbauer_c(np.array(self.DEGREES), 1.5, x),
                         [gegenbauer_c(l, 1.5, x) for l in self.DEGREES], x)

    @pytest.mark.parametrize("x", [0.3, np.cos(US)], ids=["scalar", "array"])
    def test_ladder(self, x):
        # m = 3 differentiates the degrees 0, 1 and 2 away, wherever they stand in the row
        degrees = [5, 0, 3, 2, 9, 1, 5]
        rows = ladder_apply(3, degrees, 1.0, x)
        self.assert_rows(rows, [ladder_apply(3, l, 1.0, x) for l in degrees], x)
        assert np.all(rows[[1, 3, 5]] == 0.0)

    def test_empty_row(self):
        assert jacobi_p([], 1, 1, np.cos(US)).shape == (0, US.size)

    def test_row_domain_errors(self):
        with pytest.raises(DomainError, match="got -1"):
            jacobi_p([2, -1], 1, 1, 0.3)
        with pytest.raises(DomainError, match="2 dimensions"):
            gegenbauer_c([[1, 2]], 1.0, 0.3)
        with pytest.raises(DomainError):
            ladder_apply(1, [1, 2], 1.0, 1.5)
