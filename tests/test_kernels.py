"""Tests for the kernel assembly in both representations."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import integral_kernel_reference
from projheat import quadrature
from projheat.errors import DomainError, TruncationCapError
from projheat.geometry import SpaceDescriptor
from projheat.kernels import KernelValue, series_values, stationary_value, unified


class TestStationaryLimits:
    def test_hp1_long_time(self):
        # l = 0 coefficient: 3! / pi^2
        res = unified(1, 2, 50.0, 0.3)
        assert_allclose(res.value, 6.0 / math.pi**2, rtol=1e-12)

    def test_cp1_long_time(self):
        res = unified(1, 1, 50.0, 0.1)
        assert_allclose(res.value, 1.0 / math.pi, rtol=1e-12)

    def test_cp2_long_time(self):
        res = unified(2, 1, 50.0, 0.8)
        assert_allclose(res.value, 2.0 / math.pi**2, rtol=1e-12)

    def test_integral_reaches_long_time_without_overflow(self):
        res = unified(1, 2, 50.0, 0.7, tol=1e-10, method="integral")
        assert_allclose(res.value, 6.0 / math.pi**2, rtol=1e-8)
        res = unified(1, 1, 50.0, 0.2, tol=1e-10, method="integral")
        assert_allclose(res.value, 1.0 / math.pi, rtol=1e-8)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_formula(self, k, n):
        space = SpaceDescriptor(n=n, k=k)
        c = k * (n + 1) - 1
        expected = (c * math.factorial(c - 1)) / (
            math.factorial(k - 1) * math.pi ** (k * n)
        )
        assert_allclose(stationary_value(space), expected, rtol=1e-15)
        assert_allclose(unified(n, k, 50.0, 0.4).value, expected, rtol=1e-10)


class TestRepresentationEquivalence:
    @pytest.mark.parametrize("t", [0.05, 0.5, 5.0])
    @pytest.mark.parametrize("d", [0.0, 0.4, 1.5])
    def test_hp1(self, t, d):
        s = unified(1, 2, t, d, tol=1e-12)
        i = unified(1, 2, t, d, tol=1e-12, method="integral")
        assert abs(s.value - i.value) <= 1e-8 * abs(s.value)

    @pytest.mark.parametrize("t", [0.05, 0.5])
    @pytest.mark.parametrize("d", [0.0, 0.3, 1.2])
    def test_cp1(self, t, d):
        s = unified(1, 1, t, d, tol=1e-12)
        i = unified(1, 1, t, d, tol=1e-12, method="integral")
        assert abs(s.value - i.value) <= 1e-8 * abs(s.value)

    def test_near_diameter(self):
        d = math.pi / 2 - 1e-3
        s = unified(1, 2, 0.5, d, tol=1e-12)
        i = unified(1, 2, 0.5, d, tol=1e-12, method="integral")
        assert s.value > 0
        assert abs(s.value - i.value) <= 1e-8 * abs(s.value)

    def test_odd_complex_index_consistency(self):
        # the odd-index complex kernel shares its theta series with the
        # quaternionic one
        s = unified(3, 1, 0.5, 0.3, tol=1e-12)
        i = unified(3, 1, 0.5, 0.3, tol=1e-12, method="integral")
        assert abs(s.value - i.value) <= 1e-8 * abs(s.value)


class TestTruncationBehaviour:
    def test_tail_bound_sound(self):
        # tightening the tolerance changes the value by less than the
        # looser tolerance's reported bound
        loose = unified(2, 2, 0.3, 0.6, tol=1e-8)
        tight = unified(2, 2, 0.3, 0.6, tol=1e-14)
        assert abs(loose.value - tight.value) <= loose.est_error
        assert loose.est_error <= 1e-8

    def test_d_zero_same_code_path(self):
        res = unified(2, 1, 0.2, 0.0, tol=1e-10)
        tight = unified(2, 1, 0.2, 0.0, tol=1e-14)
        assert abs(res.value - tight.value) <= res.est_error

    def test_terms_grow_as_t_shrinks(self):
        few = unified(1, 2, 1.0, 0.3).terms_or_nodes
        many = unified(1, 2, 1e-3, 0.3).terms_or_nodes
        assert many > few

    def test_cap_error_for_tiny_t(self):
        with pytest.raises(TruncationCapError):
            unified(1, 2, 1e-9, 0.3, tol=1e-12)

    def test_series_values_vectorized(self):
        ds = np.linspace(0.0, 1.5, 7)
        vals, terms, tail = series_values(2, 1, 0.5, ds, 1e-12)
        assert terms >= 1 and tail <= 1e-12
        for d, v in zip(ds, vals):
            assert_allclose(v, unified(1, 2, 0.5, float(d), tol=1e-12).value, rtol=1e-15)


class TestPositivityAndMonotonicity:
    def test_positive_on_grid(self):
        for k, n in ((1, 1), (1, 3), (2, 1), (2, 3)):
            for t in (0.05, 0.5, 5.0):
                vals, _, _ = series_values(k, n, t, np.linspace(0.0, 1.5, 11), 1e-12)
                assert np.all(vals > 0)

    def test_monotone_relaxation(self):
        space = SpaceDescriptor(n=1, k=2)
        flat = stationary_value(space)
        ts = np.linspace(1.0, 2.0, 20)
        vals = np.array([unified(1, 2, float(t), 0.4, tol=1e-13).value for t in ts])
        inc = np.diff(vals)
        direction = 1.0 if inc[np.argmax(np.abs(inc))] >= 0 else -1.0
        assert np.all(inc * direction >= -1e-13 * max(1.0, abs(flat)))


class TestQueryInterface:
    def test_est_error_within_tol(self):
        for method in ("series", "integral"):
            res = unified(1, 2, 0.5, 0.4, tol=1e-9, method=method)
            assert res.est_error <= 1e-9
            assert res.terms_or_nodes >= 1

    def test_validation(self):
        for method in ("series", "integral"):
            with pytest.raises(DomainError):
                unified(1, 1, -1.0, 0.3, method=method)
            with pytest.raises(DomainError):
                unified(1, 1, 0.5, math.pi / 2, method=method)
            with pytest.raises(DomainError):
                unified(1, 1, 0.5, float("nan"), method=method)
            with pytest.raises(DomainError):
                unified(1, 3, 0.5, 0.3, method=method)
            with pytest.raises(DomainError):
                unified(0, 1, 0.5, 0.3, method=method)
        with pytest.raises(DomainError):
            unified(1, 1, 0.5, 0.3, method="magic")

    @pytest.mark.parametrize("method", ["series", "integral"])
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_nonpositive_tolerance_rejected(self, method, tol):
        with pytest.raises(DomainError):
            unified(2, 2, 0.5, 0.3, tol=tol, method=method)

    @pytest.mark.parametrize("method", ["series", "integral"])
    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_nonfinite_time_rejected(self, method, t):
        with pytest.raises(DomainError, match="finite"):
            unified(1, 2, t, 0.3, method=method)

    @pytest.mark.parametrize("method", ["series", "integral"])
    @pytest.mark.parametrize("k,n_max", [(1, 171), (2, 85)])
    def test_index_whose_weights_overflow_rejected(self, method, k, n_max):
        with pytest.raises(DomainError, match=f"must be <= {n_max} for k={k}, got {n_max + 1}"):
            unified(n_max + 1, k, 0.5, 0.3, method=method)

    @pytest.mark.parametrize("k,n_max", [(1, 171), (2, 85)])
    def test_largest_index_is_not_rejected(self, k, n_max):
        # its weights overflow to inf rather than raise, so the tail bound
        # never falls and the series reports its term cap
        with np.errstate(all="ignore"), pytest.raises(TruncationCapError):
            unified(n_max, k, 0.5, 0.3)

    def test_kernel_value_is_plain_record(self):
        v = KernelValue(value=1.0, terms_or_nodes=3, est_error=1e-12)
        assert v.value == 1.0 and v.terms_or_nodes == 3


def _entries(row):
    """The per-distance KernelValues of a row record."""
    return [KernelValue(*entry) for entry in zip(row.value.tolist(), row.terms_or_nodes.tolist(),
                                                 row.est_error.tolist())]


class TestRowCall:
    """A sequence of distances gives one KernelValue of arrays, the row record."""

    DS = [0.0, 1.5, *np.linspace(0.05, 1.45, 18)]

    @pytest.mark.parametrize("method", ["series", "integral"])
    @pytest.mark.parametrize("k,n,t", [(1, 1, 0.05), (1, 3, 0.5), (2, 1, 0.2), (2, 3, 1.0)])
    def test_row_equals_scalar_calls(self, method, k, n, t):
        # the integral's scalar call is itself a row of one, so its row is
        # held against the one-distance reference loop instead
        row = unified(n, k, t, self.DS, 1e-10, method)
        assert isinstance(row, KernelValue)
        assert row.value.dtype == row.est_error.dtype == float
        assert row.terms_or_nodes.dtype.kind == "i"
        assert row.value.shape == row.terms_or_nodes.shape == row.est_error.shape == (len(self.DS),)
        for d, got in zip(self.DS, _entries(row)):
            if method == "integral":
                want = integral_kernel_reference(n, k, t, float(d), 1e-10)
            else:
                want = unified(n, k, t, float(d), 1e-10, method)
            assert got.value == want.value
            assert got.terms_or_nodes == want.terms_or_nodes
            assert got.est_error == want.est_error

    @pytest.mark.parametrize("method", ["series", "integral"])
    def test_scalar_distance_gives_one_value(self, method):
        assert isinstance(unified(1, 2, 0.5, 0.4, method=method), KernelValue)
        assert isinstance(unified(1, 2, 0.5, np.float64(0.4), method=method), KernelValue)

    @pytest.mark.parametrize("method", ["series", "integral"])
    @pytest.mark.parametrize("bad", [math.pi / 2, -0.1, float("nan")])
    @pytest.mark.parametrize("where", [0, 3, -1])
    def test_one_bad_distance_rejects_the_row(self, method, bad, where):
        ds = [0.1, 0.4, 0.7, 1.0, 1.3]
        ds[where] = bad
        with pytest.raises(DomainError):
            unified(1, 2, 0.5, ds, method=method)

    def test_bad_method_with_a_row(self):
        with pytest.raises(DomainError):
            unified(1, 2, 0.5, [0.1, 0.4], method="magic")

    @pytest.mark.parametrize("method", ["series", "integral"])
    def test_multidimensional_distances_rejected(self, method):
        with pytest.raises(DomainError):
            unified(1, 2, 0.5, np.array([[0.1, 0.2]]), method=method)

    @pytest.mark.parametrize("method", ["series", "integral"])
    def test_empty_row(self, method):
        row = unified(1, 2, 0.5, [], method=method)
        assert [column.size for column in (row.value, row.terms_or_nodes, row.est_error)] == [0] * 3


class TestIntegralRow:
    """The integral row against the one-distance reference doubling loop."""

    # at t = 2e-4 the row needs 32, 64 and 512 nodes
    DS = [float(d) for d in np.linspace(0.0, 1.565, 60)]

    def test_mixed_node_counts(self):
        row = unified(2, 1, 2e-4, self.DS, 1e-6, "integral")
        assert len(set(row.terms_or_nodes.tolist())) >= 3
        for d, got in zip(self.DS, _entries(row)):
            assert got == integral_kernel_reference(2, 1, 2e-4, d, 1e-6)

    def test_row_split_into_chunks(self, monkeypatch):
        # 1000 nodes per integrand call splits every round after the first
        monkeypatch.setattr(quadrature, "_CALL_NODES", 1000)
        row = unified(2, 1, 2e-4, self.DS, 1e-6, "integral")
        for d, got in zip(self.DS, _entries(row)):
            assert got == integral_kernel_reference(2, 1, 2e-4, d, 1e-6)
