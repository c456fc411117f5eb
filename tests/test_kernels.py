"""Tests for the kernel assembly in both representations."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import integral_kernel_reference
from projheat import kernels, quadrature, thetapsi
from projheat.errors import DomainError, QuadratureConvergenceError, TruncationCapError
from projheat.geometry import SpaceDescriptor
from projheat.kernels import KernelValue, series_values, unified
from projheat.verify import _stationary_value as stationary_value


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

    @pytest.mark.parametrize("k,n_max", [(1, 171), (2, 85)])
    def test_formula_where_c_factorial_overflows(self, k, n_max):
        # c! overflows a float at n_max, the value ~1e224 does not; held to
        # the formula at the float pi, whose own error grows to ~1e-14 here
        space = SpaceDescriptor(n=n_max, k=k)
        c = space.spectral_offset
        got = stationary_value(space)
        assert math.isfinite(got)
        with mpmath.workdps(40):
            exact = (mpmath.factorial(c) / mpmath.factorial(k - 1)
                     / mpmath.mpf(math.pi) ** (k * n_max))
            assert abs(got - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("k,n_max", [(1, 171), (2, 85)])
    def test_beyond_largest_index_rejected(self, k, n_max):
        with pytest.raises(DomainError, match=f"must be <= {n_max} for k={k}, got {n_max + 1}"):
            stationary_value(SpaceDescriptor(n=n_max + 1, k=k))

    @pytest.mark.parametrize("n,k", [(1.5, 1), (2.0, 2), (1, 1.0)])
    def test_non_integer_index_rejected(self, n, k):
        with pytest.raises(DomainError, match="integers"):
            stationary_value(SpaceDescriptor(n=n, k=k))


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
        # below the domain, which unified refuses: the cap stops the loop all the same
        with pytest.raises(TruncationCapError, match=f"more than {kernels.SERIES_CAP} terms"):
            series_values(2, 1, 1e-9, 0.3, 1e-12)

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
    @pytest.mark.parametrize("n,k", [(2.0, 1), (1.5, 1), (1, 2.0)])
    def test_non_integer_index_rejected(self, method, n, k):
        with pytest.raises(DomainError, match="integers"):
            unified(n, k, 0.5, 0.3, method=method)

    def test_numpy_integer_index_accepted(self):
        got = unified(np.int64(2), np.int32(1), 0.5, 0.3)
        assert got.value == unified(2, 1, 0.5, 0.3).value

    @pytest.mark.parametrize("method", ["series", "integral"])
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), math.inf])
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
        # its weights overflow to inf: the first non-finite weight stops each
        # series, before any term turns the sum into inf or NaN
        for method, name in (("series", "spectral"), ("integral", "ladder")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TruncationCapError,
                                   match=f"{name} series weights overflow floating point"):
                    unified(n_max, k, 0.5, 0.3, method=method)

    @pytest.mark.parametrize("k,n", [
        (1, 171), (2, 85),  # the first weight overflows, before any tail bound is tested
        (1, 120), (2, 60),  # every weight is finite, a weighted term at d = 0 is not
    ])
    def test_overflow_at_small_time_is_refused_without_warning(self, k, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TruncationCapError,
                               match="spectral series weights overflow floating point"):
                series_values(k, n, 1e-4, np.array([0.0, 0.3]), 1e-10)

    def test_kernel_value_is_plain_record(self):
        v = KernelValue(value=1.0, terms_or_nodes=3, est_error=1e-12)
        assert v.value == 1.0 and v.terms_or_nodes == 3

    @pytest.mark.parametrize("method", ["series", "integral"])
    def test_scalar_record_unpacks_into_float_int_float(self, method):
        value, terms, err = unified(1, 2, 0.5, 0.4, method=method)
        assert (type(value), type(terms), type(err)) == (float, int, float)

    @pytest.mark.parametrize("method", ["series", "integral"])
    def test_grid_record_unpacks_into_its_arrays(self, method):
        record = unified(1, 2, [0.1, 0.5], [0.0, 0.4, 0.8], method=method)
        value, terms, err = record
        assert value is record.value and terms is record.terms_or_nodes
        assert err is record.est_error
        assert value.shape == terms.shape == err.shape == (2, 3)


#: one bad argument of ``unified(n, k, t, d, tol, method)`` each; method None is either method
_REFUSED = {
    "t_zero": (2, 1, 0.0, 0.3, 1e-10, None),
    "t_below_floor_in_column": (2, 1, [0.5, 5e-5], 0.3, 1e-10, None),
    "t_negative_in_column": (2, 1, [0.5, -0.5], 0.3, 1e-10, None),
    "t_inf_in_column": (2, 1, [0.5, math.inf], 0.3, 1e-10, None),
    "t_nan": (2, 1, math.nan, 0.3, 1e-10, None),
    "t_2d": (2, 1, [[0.5]], 0.3, 1e-10, None),
    "d_half_pi": (2, 1, 0.5, [0.3, math.pi / 2], 1e-10, None),
    "d_negative": (2, 1, 0.5, -0.1, 1e-10, None),
    "d_nan": (2, 1, 0.5, math.nan, 1e-10, None),
    "d_2d": (2, 1, 0.5, [[0.3]], 1e-10, None),
    "tol_zero": (2, 1, 0.5, 0.3, 0.0, None),
    "tol_nan": (2, 1, 0.5, 0.3, math.nan, None),
    "tol_inf": (2, 1, 0.5, 0.3, math.inf, None),
    "n_zero": (0, 1, 0.5, 0.3, 1e-10, None),
    "n_float": (2.0, 1, 0.5, 0.3, 1e-10, None),
    "n_too_large": (86, 2, 0.5, 0.3, 1e-10, None),
    "k_three": (2, 3, 0.5, 0.3, 1e-10, None),
    "k_float": (2, 1.0, 0.5, 0.3, 1e-10, None),
    "method": (2, 1, 0.5, 0.3, 1e-10, "magic"),
}

#: what each method runs beneath ``unified``, spied on where ``kernels`` looks them up
_BENEATH = ("series_values", "PsiSeries", "adaptive_integrate_row")


class TestOneCheck:
    """``unified`` checks every argument before either method runs, and nothing beneath it does."""

    @pytest.fixture
    def entered(self, monkeypatch):
        names = []
        for name in _BENEATH:
            original = getattr(kernels, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                names.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(kernels, name, spy)
        return names

    @pytest.mark.parametrize("method", ["series", "integral"])
    @pytest.mark.parametrize("args", _REFUSED.values(), ids=_REFUSED.keys())
    def test_refused_before_either_method_runs(self, entered, method, args):
        *args, bad_method = args
        with pytest.raises(DomainError):
            unified(*args, bad_method or method)
        assert entered == []

    @pytest.mark.parametrize("method,names", [
        ("series", ["series_values"] * 2),
        ("integral", ["PsiSeries", "adaptive_integrate_row"]),
    ])
    def test_spies_see_a_good_call(self, entered, method, names):
        # the positive control: the same spies see what each method runs
        unified(2, 1, [0.5, 1.0], 0.3, 1e-10, method)
        assert entered == names

    def test_series_grid_checks_once(self, monkeypatch):
        calls = []
        original = kernels._check_args

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(kernels, "_check_args", spy)
        unified(2, 1, [0.1, 0.2, 0.5, 1.0, 2.0], [0.0, 0.3, 1.2])
        assert len(calls) == 1


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

    # at t = 2e-4 the row needs 32, 64 and 128 nodes
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

        # a grid: each psi call gets at most _CALL_NODES (time, node) pairs,
        # the 3 times' rows sharing one call while they fit, split when they do not
        calls = _spy_psi_calls(monkeypatch)
        ts = [1e-4, 0.002, 0.02]
        grid = unified(2, 1, ts, self.DS, 1e-10, "integral")
        assert max(rows * nodes for rows, nodes in calls) <= 1000
        assert (3, 320) in calls  # 20 distances of 16 nodes, for all three times
        assert len(set(grid.terms_or_nodes.ravel().tolist())) >= 4
        for t, row in zip(ts, _rows(grid)):
            _assert_same(row, unified(2, 1, t, self.DS, 1e-10, "integral"))

    def test_large_grid_calls_stay_under_the_cap(self, monkeypatch):
        # 120 x 300: one round asks for 576 000 (time, node) pairs at 16 nodes
        calls = _spy_psi_calls(monkeypatch)
        ts = np.linspace(0.05, 2.0, 120)
        ds = np.linspace(0.0, 1.5, 300)
        grid = unified(1, 2, ts, ds, 1e-10, "integral")
        assert grid.value.shape == (120, 300)
        assert max(rows * nodes for rows, nodes in calls) <= quadrature._CALL_NODES
        assert len(calls) > 2 * 576_000 // quadrature._CALL_NODES  # every round is split
        for i in (0, 57, 119):
            _assert_same(_rows(grid)[i], unified(1, 2, float(ts[i]), ds, 1e-10, "integral"))


def _spy_psi_calls(monkeypatch) -> list:
    """(times, nodes) of every PsiSeries call from now on."""
    calls = []
    call = thetapsi.PsiSeries.__call__

    def spy(self, rows, u):
        calls.append((np.size(rows), np.size(u)))
        return call(self, rows, u)

    monkeypatch.setattr(thetapsi.PsiSeries, "__call__", spy)
    return calls


def _rows(grid):
    """The row records of a grid record, one per time."""
    return [KernelValue(*columns) for columns in zip(grid.value, grid.terms_or_nodes,
                                                      grid.est_error)]


def _assert_same(got, want):
    for name in ("value", "terms_or_nodes", "est_error"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.shape(a) == np.shape(b) and np.asarray(a).tolist() == np.asarray(b).tolist()


class TestGridCall:
    """A sequence of times adds a leading axis: one row per time, each the time's own call."""

    DS = [float(d) for d in np.linspace(0.0, 1.565, 24)]

    # the integral's times need 32 to 256 nodes and the series' from 2 to 266 terms
    @pytest.mark.parametrize("k,n,ts", [
        (1, 1, (2e-4, 0.002, 0.02)), (1, 2, (2e-4, 0.002, 0.02)), (2, 1, (2e-4, 0.002, 0.02)),
        (1, 3, (2e-4, 0.002, 0.02)), (2, 2, (2e-4, 0.002, 0.02)), (2, 3, (4e-4, 0.004, 0.04)),
    ])
    @pytest.mark.parametrize("method,tol", [("series", 1e-10), ("integral", 1e-6)])
    def test_grid_equals_per_time_calls(self, k, n, ts, method, tol):
        # out of order, one time twice: the rows' series end in another order than they start
        ts = (ts[1], 0.5, ts[0], ts[2], 0.5)
        want = [unified(n, k, t, self.DS, tol, method) for t in ts]
        grid = unified(n, k, list(ts), self.DS, tol, method)
        assert grid.value.shape == grid.terms_or_nodes.shape == grid.est_error.shape == (
            len(ts), len(self.DS))
        assert grid.terms_or_nodes.dtype.kind == "i"
        for got, row in zip(_rows(grid), want):
            _assert_same(got, row)
        assert len(set(grid.terms_or_nodes.ravel().tolist())) >= 3

    @pytest.mark.parametrize("method", ["series", "integral"])
    def test_scalar_time_gives_the_row_record(self, method):
        row = unified(1, 2, 0.5, [0.1, 0.4], method=method)
        assert row.value.shape == row.terms_or_nodes.shape == row.est_error.shape == (2,)
        one = unified(1, 2, [0.5], [0.1, 0.4], method=method)
        assert one.value.shape == (1, 2)
        _assert_same(_rows(one)[0], row)
        column = unified(1, 2, [0.5, 1.0], 0.4, method=method)
        assert column.value.shape == column.terms_or_nodes.shape == (2,)
        point = unified(1, 2, 1.0, 0.4, method=method)
        assert isinstance(point.value, float) and isinstance(point.terms_or_nodes, int)
        assert (column.value[1], column.terms_or_nodes[1], column.est_error[1]) == (
            point.value, point.terms_or_nodes, point.est_error)

    @pytest.mark.parametrize("method", ["series", "integral"])
    def test_empty_times(self, method):
        grid = unified(1, 2, [], [0.1, 0.4], method=method)
        assert [a.shape for a in (grid.value, grid.terms_or_nodes, grid.est_error)] == [(0, 2)] * 3

    @pytest.mark.parametrize("method", ["series", "integral"])
    @pytest.mark.parametrize("n,k,d,tol", [(0, 2, 0.4, 1e-10), (1, 3, 0.4, 1e-10),
                                           (1, 2, 2.0, 1e-10), (1, 2, 0.4, -1.0)],
                             ids=["n", "k", "d", "tol"])
    def test_empty_times_check_the_other_arguments(self, method, n, k, d, tol):
        # no time to evaluate, but the index, field, distances and tolerance are refused
        with pytest.raises(DomainError):
            unified(n, k, [], [0.1, d], tol, method)

    @pytest.mark.parametrize("method", ["series", "integral"])
    def test_bad_time_anywhere_rejects_the_grid(self, method):
        for bad in (0.0, -1.0, 5e-5, math.inf, math.nan):
            with pytest.raises(DomainError, match=f"got {bad}"):
                unified(1, 2, [0.5, bad, 0.1], [0.1, 0.4], method=method)
        with pytest.raises(DomainError, match="2 dimensions"):
            unified(1, 2, [[0.5]], [0.1, 0.4], method=method)

    @pytest.mark.parametrize("n,k,ts,method,error,match", [
        # both times' weights overflow, each with its own time in the message
        (120, 1, [1e-4, 2e-4], "series", TruncationCapError, "at k=1, n=120, t=0.0001$"),
        # the later time's weights fail (patched in below), before the doubling
        # loop that t = 0.0005 fails in starts
        (3, 2, [0.0005, 0.001], "integral", QuadratureConvergenceError,
         "no convergence to tol=2.2052195184525946e-06 within 4096 nodes"),
    ])
    def test_first_failing_time_raises(self, monkeypatch, n, k, ts, method, error, match):
        if method == "integral":
            weights = thetapsi._weights

            def failing_at_the_later_time(c, t, tol, base):
                if t == ts[1]:
                    raise TruncationCapError(f"ladder series weights fail at t={t}")
                return weights(c, t, tol, base)

            monkeypatch.setattr(thetapsi, "_weights", failing_at_the_later_time)
        failures = (TruncationCapError, QuadratureConvergenceError)
        alone = []  # (class, message) of each time's own call
        for t in ts:
            with pytest.raises(failures) as err:
                unified(n, k, t, [0.0, 0.3], 1e-10, method)
            alone.append((type(err.value), str(err.value)))
        assert alone[0][0] is error and re.search(match, alone[0][1])
        assert not re.search(match, alone[1][1])  # the later time fails otherwise
        for grid in (ts, [0.5] + ts):  # behind a time that does not fail, too
            with pytest.raises(failures) as err:
                unified(n, k, grid, [0.0, 0.3], 1e-10, method)
            if method == "series":  # time by time: the first failing time's error
                assert (type(err.value), str(err.value)) == alone[0]
            else:  # every time's weights are summed before the doubling loop
                assert (type(err.value), str(err.value)) in alone


class TestSeriesGrid:
    """The series grid is ``series_values`` at each of its times: values, terms and tail bounds."""

    DS = [float(d) for d in np.linspace(0.0, 1.5, 9)]

    @pytest.mark.parametrize("ts", [
        [0.3],  # a grid of one time
        [0.002, 0.05, 0.5, 5.0],  # series that shorten along the times
        [0.5, 0.002, 5.0, 0.05, 0.002],  # out of order, one time twice
    ], ids=["one", "in_order", "out_of_order"])
    @pytest.mark.parametrize("k,n", [(1, 2), (2, 3)])
    def test_grid_rows_are_one_time_calls(self, k, n, ts):
        grid = unified(n, k, ts, self.DS, 1e-12)
        for i, t in enumerate(ts):
            values, terms, tail = series_values(k, n, t, self.DS, 1e-12)
            assert np.all(grid.value[i] == values)
            assert np.all(grid.terms_or_nodes[i] == terms)
            assert np.all(grid.est_error[i] == tail)
        assert len(set(grid.terms_or_nodes[:, 0].tolist())) == len(set(ts))

    def test_one_time_shapes(self):
        values, terms, tail = series_values(2, 1, 0.5, 0.4, 1e-10)
        assert np.shape(values) == () and type(terms) is int and type(tail) is float
        row, _, _ = series_values(2, 1, 0.5, [0.4], 1e-10)
        assert row.shape == (1,) and row[0] == values


class TestSpaceOwnsTheNumbers:
    """Both forms read alpha, beta, c and lambda_l from ``SpaceDescriptor``.

    So what the suite's radial eigenfunction check certifies on
    ``SpaceDescriptor`` is what the series sums: a wrong value there shows
    in the kernel.
    """

    @pytest.mark.parametrize("name,wrong", [
        ("jacobi_alpha", property(lambda self: self.k * self.n)),
        ("jacobi_beta", property(lambda self: self.k)),
        ("eigenvalue", lambda self, l: -4.0 * l * (l + self.spectral_offset + 1)),
    ], ids=["jacobi_alpha", "jacobi_beta", "eigenvalue"])
    def test_series_reads_the_space(self, monkeypatch, name, wrong):
        ds = np.array([0.0, 0.4, 1.1])
        before = series_values(2, 2, 0.3, ds, 1e-12)[0]
        monkeypatch.setattr(SpaceDescriptor, name, wrong)
        assert not np.array_equal(series_values(2, 2, 0.3, ds, 1e-12)[0], before)

    @pytest.mark.parametrize("method", ["series", "integral"])
    def test_offset_is_read_from_the_space(self, monkeypatch, method):
        before = unified(1, 2, 0.3, [0.0, 0.4], 1e-10, method).value
        monkeypatch.setattr(SpaceDescriptor, "spectral_offset",
                            property(lambda self: self.k * (self.n + 1)))
        assert not np.array_equal(unified(1, 2, 0.3, [0.0, 0.4], 1e-10, method).value, before)
