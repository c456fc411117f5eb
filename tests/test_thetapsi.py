"""Tests for the ladder sum PsiSeries and for the theta oracles in verify that certify it.

The oracles, ``verify._theta_sum`` and ``verify._jacobi_theta2_reference``,
are tested here beside the series they certify.  The series folds
exp(c^2 t) into every term; where a test compares it at an absolute
tolerance with an unshifted sum, the test divides that factor out.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from projheat import thetapsi, verify
from projheat.errors import DomainError, ProjheatError, TruncationCapError
from projheat.thetapsi import DEFAULT_TOL, PsiSeries
from projheat.verify import _jacobi_theta2_reference as jacobi_theta2_reference
from projheat.verify import _ladder_apply as ladder_apply
from projheat.verify import _theta_sum as theta_sum

from helpers import psi_sum_reference, theta2_brute, theta_brute


def psi(c, t, u, tol=DEFAULT_TOL):
    """exp(c^2 t) Psi_c(t, u) at the one time t: the one row of a one-time series."""
    return PsiSeries(c, (t,), tol)((0,), u)[0]


class TestTheta:
    def test_odd_cosines_vanish_at_half_pi(self):
        # every term carries cos(odd * pi/2) = 0
        val = theta_sum(4, 0.5, math.pi / 2)
        assert abs(val) <= 1e-12

    def test_single_term_domination_at_large_t(self):
        # (m=4, t=10, u=0): first term exp(-4*10*(3/2)^2) = exp(-90)
        val = theta_sum(4, 10.0, 0.0)
        assert_allclose(val, math.exp(-90.0), rtol=1e-14)
        assert_allclose(theta_brute(4, 10.0, 0.0), math.exp(-90.0), rtol=1e-14)

    @pytest.mark.parametrize("m,t,u", [(2, 0.3, 0.4), (4, 0.05, 1.0), (6, 0.5, 0.2),
                                       (3, 0.7, 2.5), (2, 0.001, 0.9)])
    def test_matches_brute_force(self, m, t, u):
        auto = theta_sum(m, t, u)
        brute = theta_brute(m, t, u, terms=2000)
        assert abs(auto - brute) <= DEFAULT_TOL

    def test_matches_half_classical_theta2(self):
        # the m=2 series is half the classical theta-2 on the nose
        t, u = 0.3, 0.4
        lhs = theta_sum(2, t, u)
        rhs = 0.5 * jacobi_theta2_reference(u / math.pi, 4.0 * t / math.pi)
        assert_allclose(lhs, rhs, atol=1e-13)

    def test_parity(self):
        for m, t, u in ((2, 0.3, 0.4), (4, 0.5, 1.1), (5, 0.2, 0.8)):
            assert abs(theta_sum(m, t, u) - theta_sum(m, t, -u)) <= 1e-14

    def test_truncation_soundness(self):
        for m, t, u in ((2, 0.3, 0.4), (4, 0.05, 1.0)):
            auto = theta_sum(m, t, u)
            brute = theta_brute(m, t, u, terms=4000)
            assert abs(auto - brute) < DEFAULT_TOL

    def test_cap_error_signals_small_t(self, monkeypatch):
        monkeypatch.setattr(verify, "_THETA_CAP", 5)
        with pytest.raises(TruncationCapError, match="more than 5 terms"):
            theta_sum(2, 1e-4, 0.3)

    def test_query_validation(self):
        # only PsiSeries takes a tolerance; theta_sum always sums to 1e-12
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError, match="tolerance must be positive"):
                psi(3, 0.5, 0.3, tol)

    def test_rejects_subscript_below_two(self):
        with pytest.raises(DomainError):
            theta_sum(1, 0.5, 0.3)

    @pytest.mark.parametrize("t", [0.0, -0.5, float("nan")])
    def test_rejects_nonpositive_time(self, t):
        with pytest.raises(DomainError):
            theta_sum(4, t, 0.1)

    def test_rejects_nonfinite_angle(self):
        with pytest.raises(DomainError):
            theta_sum(4, 0.5, np.array([0.1, np.inf]))


class TestPsi:
    def test_single_ladder_is_sine_series(self):
        # one application turns cos((2l+1)u) into (2l+1) sin((2l+1)u)
        t, u = 0.5, 0.9
        lhs = psi(1, t, u) / math.exp(t)
        rhs = sum(
            (2 * l + 1) * math.exp(-4.0 * t * (l + 0.5) ** 2) * math.sin((2 * l + 1) * u)
            for l in range(200)
        )
        assert_allclose(lhs, rhs, atol=1e-13)

    def test_large_t_single_term(self):
        # (c=3, t=5): the leading term is 24 sin(u) exp(-45) exp(9 t) = 24 sin(u);
        # the next one is exp(-80) smaller, so the closed form is exact to roundoff
        u = 0.8
        val = psi(3, 5.0, u)
        assert_allclose(val, 24.0 * math.sin(u), rtol=1e-12)

    def test_finite_at_u_zero_and_pi(self):
        assert psi(3, 0.5, 0.0) == 0.0
        assert abs(psi(3, 0.5, math.pi) / math.exp(9 * 0.5)) < 1e-12

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_finite_at_half_pi_and_matches_fd(self, j):
        # no division by sin(u) happens anywhere near u = pi/2
        from helpers import ladder_fd

        t, u = 0.5, math.pi / 2
        val = psi(j, t, u)
        assert math.isfinite(val)
        val /= math.exp(j * j * t)
        fd = math.sin(u) * ladder_fd(lambda v: theta_sum(j + 1, t, v), u, j)
        assert abs(val - fd) <= 1e-5 * max(1.0, abs(val))

    def test_vectorized_matches_scalar(self):
        us = np.linspace(0.1, 1.4, 6)
        vec = psi(3, 0.5, us)
        for u, v in zip(us, vec):
            assert_allclose(v, psi(3, 0.5, float(u)), rtol=1e-14)

    def test_truncation_soundness(self):
        # doubling the brute-force term count changes nothing beyond tol
        for j, t, u in ((1, 0.3, 0.7), (3, 0.2, 0.9), (5, 0.1, 1.2)):
            m = j + 1
            auto = psi(j, t, u) / math.exp(j * j * t)
            brute = 0.0
            for l in range(3000):
                a = math.exp(-4.0 * t * (l + 0.5 * (m - 1)) ** 2)
                if a == 0.0:
                    break  # a only falls with l: every later term is +-0.0, a no-op
                q = 2 * l + m - 1  # L^j cos(qu) = q L^(j-1) C_{q-1}^1(cos u)
                brute += a * math.sin(u) * (q * ladder_apply(j - 1, q - 1, 1.0, math.cos(u)))
            assert abs(auto - brute) <= DEFAULT_TOL

    @pytest.mark.parametrize("t", [1e-4, 0.05, 0.5, 5.0])
    @pytest.mark.parametrize("c", [1, 2, 3, 5, 11, 150, 151, 171])
    def test_matches_general_sum_with_folded_shift(self, c, t):
        # bit for bit on a row, or the same error class where the general sum raised
        u = np.array([0.0, 0.3, 0.9, math.pi / 2, 2.5, math.pi])
        try:
            expected = psi_sum_reference(c, c + 1, t, u, DEFAULT_TOL, exp_shift=float(c * c))
        except ProjheatError as exc:
            with pytest.raises(type(exc)):
                psi(c, t, u, DEFAULT_TOL)
            return
        got = psi(c, t, u, DEFAULT_TOL)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected.tolist()]

    def test_cap_error(self, monkeypatch):
        monkeypatch.setattr(thetapsi, "TERM_CAP", 4)
        with pytest.raises(TruncationCapError, match="more than 4 terms"):
            psi(3, 1e-4, 0.5)

    def test_rejects_bad_ladder_count(self):
        with pytest.raises(DomainError):
            psi(0, 0.5, 0.3)

    @pytest.mark.parametrize("build", [
        lambda: thetapsi.PsiSeries(2.5, [0.5]),
        lambda: thetapsi.PsiSeries(2.0, [0.5]),
        lambda: thetapsi.PsiSeries(np.float64(3.0), [0.5]),
    ], ids=["half", "whole_float", "numpy_float"])
    def test_rejects_non_integer_ladder_count(self, build):
        with pytest.raises(DomainError, match="ladder count must be an integer"):
            build()

    def test_numpy_integer_ladder_count_passes(self):
        assert psi(np.int64(3), 0.5, 0.3) == psi(3, 0.5, 0.3)

    def test_rejects_ladder_count_whose_scale_overflows(self):
        with pytest.raises(DomainError, match="ladder count must be <= 171, got 200"):
            psi(200, 0.5, 0.3)

    def test_overflowing_weights_stop_the_sum(self):
        # 2^170 170! is inf: the first weight is not finite
        with pytest.raises(TruncationCapError,
                           match="ladder series weights overflow floating point at j=171"):
            psi(171, 5.0, 0.3)

    @pytest.mark.parametrize("j,t", [
        (151, 0.5),   # 2^150 150! is finite, the first weight 151 2^150 150! is not
        (150, 1e-4),  # every weight is finite, a weighted Gegenbauer term is not
    ])
    def test_overflowing_term_is_refused_without_warning(self, j, t):
        u = np.array([0.0, 0.3, 1.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TruncationCapError,
                               match=f"ladder series weights overflow floating point at j={j}"):
                psi(j, t, u)

    @pytest.mark.parametrize("t", [0.0, -0.5, float("nan")])
    def test_rejects_nonpositive_time(self, t):
        with pytest.raises(DomainError):
            psi(3, t, 0.5)

    def test_rejects_nonfinite_angle(self):
        with pytest.raises(DomainError):
            psi(3, 0.5, float("nan"))

    def test_rejects_infinite_time(self):
        # the kernels' rule: a time must be finite, not an overflow of the weights
        with pytest.raises(DomainError, match="diffusion time must be positive and finite"):
            psi(3, math.inf, 0.3)

    def test_rejects_infinite_time_in_a_column(self):
        with pytest.raises(DomainError, match="diffusion time must be positive and finite, "
                                              "got inf"):
            thetapsi.PsiSeries(3, [0.5, math.inf])


class TestTheta2Reference:
    def test_zero_at_half(self):
        assert jacobi_theta2_reference(0.5, 1.3) == pytest.approx(0.0, abs=1e-13)

    def test_matches_brute(self):
        for z, s in ((0.0, 0.6366), (0.27, 1.0186), (0.9, 0.2)):
            assert_allclose(
                jacobi_theta2_reference(z, s), theta2_brute(z, s, terms=3000),
                atol=1e-12,
            )

    def test_matches_theta_m2_after_substitution(self):
        # z = x/pi, tau = 4it/pi turns theta-2 into twice the m=2 series
        for t, x in ((0.5, 0.0), (0.8, 0.27 * math.pi), (0.3, 1.1)):
            lhs = jacobi_theta2_reference(x / math.pi, 4.0 * t / math.pi)
            rhs = 2.0 * theta_sum(2, t, x)
            assert_allclose(lhs, rhs, atol=1e-12)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(DomainError):
            jacobi_theta2_reference(0.3, 0.0)

    def test_cap_error(self, monkeypatch):
        monkeypatch.setattr(verify, "_THETA_CAP", 3)
        with pytest.raises(TruncationCapError, match="more than 3 terms"):
            jacobi_theta2_reference(0.3, 1e-3)


def test_halfinteger_relation_grid():
    # theta_{2n+2}(t;x) equals half theta-2 minus its first n harmonics
    for n in (1, 2):
        for t in (0.1, 0.5, 2.0):
            for x in np.linspace(0.0, math.pi / 2, 50):
                lhs = theta_sum(2 * n + 2, t, float(x))
                corr = sum(
                    math.exp(-4.0 * t * (l + 0.5) ** 2) * math.cos((2 * l + 1) * x)
                    for l in range(n)
                )
                rhs = 0.5 * jacobi_theta2_reference(x / math.pi, 4.0 * t / math.pi) - corr
                assert abs(lhs - rhs) <= 1e-11
