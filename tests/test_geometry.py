"""Tests for projective geometry, the volume density and the radial Laplacian."""

import math
import random

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (
    encode_quaternions,
    hamilton,
    manifold_volume_reference,
    quaternion_conjugate,
    quaternion_distance,
    stationary_value_reference,
)
from projheat.errors import DomainError
from projheat.geometry import (
    MAX_OFFSET,
    SpaceDescriptor,
    distance,
    radial_laplacian_fd,
    scale_point,
    volume_density,
)
from projheat.orthopoly import jacobi_p
from projheat.quadrature import gauss_legendre_rule
from projheat.verify import _manifold_volume as manifold_volume
from projheat.verify import _random_unit_scalar as random_unit_scalar
from projheat.verify import _stationary_value as stationary_value


def _quaternions(rng, count):
    return [tuple(map(float, rng.normal(size=4))) for _ in range(count)]


def _points(rng, k, n, shape=()):
    """Encoded points with normal random entries; any k(n+1) complex entries are a point."""
    size = (*shape, k * (n + 1))
    return rng.normal(size=size) + 1j * rng.normal(size=size)


class TestQuaternion:
    """The reference Hamilton product the encoded distance is held to."""

    def test_multiplication_table(self):
        i, j, k = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
        assert hamilton(i, j) == k
        assert hamilton(j, i) == (0, 0, 0, -1)
        assert hamilton(i, i) == (-1, 0, 0, 0)

    def test_norm_is_multiplicative(self):
        rng = np.random.default_rng(3)
        for p, q in zip(_quaternions(rng, 50), _quaternions(rng, 50)):
            norm_p, norm_q = math.hypot(*p), math.hypot(*q)
            assert abs(math.hypot(*hamilton(p, q)) - norm_p * norm_q) <= 1e-14 * norm_p * norm_q

    def test_conjugation(self):
        q = (1.0, 2.0, -3.0, 0.5)
        assert quaternion_conjugate(q) == (1.0, -2.0, 3.0, -0.5)
        prod = hamilton(q, quaternion_conjugate(q))
        assert_allclose(prod[0], sum(v * v for v in q), rtol=1e-15)
        assert_allclose(prod[1:], (0.0, 0.0, 0.0), atol=1e-15)


class TestDistance:
    def test_identical_points(self):
        space = SpaceDescriptor(n=2, k=1)
        x = [1, 0, 0]
        assert distance(space, x, x) == 0.0

    def test_orthogonal_points(self):
        space = SpaceDescriptor(n=2, k=1)
        assert_allclose(distance(space, [1, 0, 0], [0, 1, 0]), math.pi / 2, rtol=1e-15)

    def test_quaternionic_example(self):
        # x = [1, 0], y = [1, j]: |sum| = 1, |x| = 1, |y| = sqrt 2 -> pi/4
        space = SpaceDescriptor(n=1, k=2)
        x = [1, 0, 0, 0]  # a = (1, 0), conj(b) = (0, 0)
        y = [1, 0, 0, 1]  # a = (1, 0), conj(b) = (0, 1): the second coordinate is j
        assert y == encode_quaternions([(1, 0, 0, 0), (0, 0, 1, 0)])
        assert_allclose(distance(space, x, y), math.acos(1.0 / math.sqrt(2.0)), rtol=1e-15)
        assert_allclose(distance(space, x, y), math.pi / 4, rtol=1e-15)

    @pytest.mark.parametrize("k", [1, 2])
    def test_projective_invariance_and_symmetry(self, k):
        rng = np.random.default_rng(11)
        space = SpaceDescriptor(n=2, k=k)
        x, y = _points(rng, k, 2, (30,)), _points(rng, k, 2, (30,))
        scalars = random.Random(11)
        q1 = np.array([random_unit_scalar(k, scalars) for _ in range(30)])
        q2 = np.array([random_unit_scalar(k, scalars) for _ in range(30)])
        base = distance(space, x, y)
        assert base.shape == (30,)
        assert distance(space, y, x).tolist() == base.tolist()  # exact, row by row
        moved = distance(space, scale_point(x, q1), scale_point(y, q2))
        assert np.max(np.abs(moved - base)) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_point_to_itself_is_zero(self, k):
        rng = np.random.default_rng(23)
        space = SpaceDescriptor(n=2, k=k)
        x = _points(rng, k, 2, (1000,))
        assert np.max(distance(space, x, x)) <= 1e-15
        # and to any multiple of itself by a scalar of F
        scalars = random.Random(23)
        s = np.array([random_unit_scalar(k, scalars) for _ in range(1000)])
        assert np.max(distance(space, x, 3.0 * scale_point(x, s))) <= 1e-15

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("d", [1e-6, 1e-3])
    def test_relative_accuracy_at_small_distances(self, k, d):
        # y = cos(d) x + sin(d) v with v a unit vector F-orthogonal to x, moved by a scalar
        rng = np.random.default_rng(29)
        scalars = random.Random(29)
        space = SpaceDescriptor(n=2, k=k)
        units = [[1.0], [1j]] if k == 1 else [[1, 0], [1j, 0], [0, 1], [0, 1j]]
        for x, v in zip(_points(rng, k, 2, (100,)), _points(rng, k, 2, (100,))):
            x = x / np.linalg.norm(x)
            for e in units:  # x e over the unit scalars e of F: an orthonormal real basis
                b = scale_point(x, np.array(e, dtype=complex))
                v = v - b * np.vdot(b, v).real
            y = math.cos(d) * x + math.sin(d) * v / np.linalg.norm(v)
            y = 2.5 * scale_point(y, random_unit_scalar(k, scalars))
            assert abs(distance(space, x, y) - d) <= 1e-8 * d

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_quaternion_reference(self, n):
        rng = np.random.default_rng(5 + n)
        space = SpaceDescriptor(n=n, k=2)
        xs = [_quaternions(rng, n + 1) for _ in range(2000)]
        ys = [_quaternions(rng, n + 1) for _ in range(2000)]
        got = distance(space, [encode_quaternions(x) for x in xs],
                       [encode_quaternions(y) for y in ys])
        want = [quaternion_distance(x, y) for x, y in zip(xs, ys)]
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_scale_point_is_the_hamilton_product(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            coords = _quaternions(rng, 3)
            [raw] = _quaternions(rng, 1)
            s = tuple(v / math.hypot(*raw) for v in raw)
            got = scale_point(encode_quaternions(coords), encode_quaternions([s]))
            want = encode_quaternions([hamilton(q, s) for q in coords])
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_rows_broadcast(self):
        rng = np.random.default_rng(17)
        space = SpaceDescriptor(n=1, k=2)
        x, ys = _points(rng, 2, 1), _points(rng, 2, 1, (4, 5))
        row = distance(space, x, ys)
        assert row.shape == (4, 5)
        assert row[2, 3] == distance(space, x, ys[2, 3])

    @pytest.mark.parametrize("k", [1, 2])
    def test_scale_free_at_extreme_magnitudes(self, k):
        rng = np.random.default_rng(19)
        space = SpaceDescriptor(n=2, k=k)
        x, y = _points(rng, k, 2), _points(rng, k, 2)
        base = distance(space, x, y)
        for factor in (1e-200, 1e200):
            assert abs(distance(space, factor * x, y) - base) <= 1e-15

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coordinate_rejected(self, k, bad):
        space = SpaceDescriptor(n=2, k=k)
        good = [1.0] + [0.0] * (3 * k - 1)
        spoilt = [1.0, 0.0, bad] + [0.0] * (3 * k - 3)
        for x, y in ((spoilt, good), (good, spoilt), ([good, spoilt], good)):
            with pytest.raises(DomainError, match="finite"):
                distance(space, x, y)

    def test_validation(self):
        space = SpaceDescriptor(n=2, k=1)
        with pytest.raises(DomainError):
            distance(space, [1, 0], [1, 0, 0])
        with pytest.raises(DomainError, match="nonzero"):
            distance(space, [0, 0, 0], [1, 0, 0])
        with pytest.raises(DomainError):
            # a point of P^2(H) has 6 entries, the space wants 3
            distance(space, [1, 0, 0], encode_quaternions([(1, 0, 0, 0)] * 3))
        with pytest.raises(DomainError):
            SpaceDescriptor(n=0, k=1)
        with pytest.raises(DomainError):
            SpaceDescriptor(n=1, k=3)


class TestAcceptedRange:
    """SpaceDescriptor owns the accepted (k, n): c = k(n+1) - 1 at most MAX_OFFSET."""

    @pytest.mark.parametrize("k,n_max", [(1, 171), (2, 85)])
    def test_largest_index_is_accepted(self, k, n_max):
        space = SpaceDescriptor(n=n_max, k=k)
        assert space.spectral_offset == MAX_OFFSET
        for value in (manifold_volume(space), volume_density(space, math.pi / 4),
                      volume_density(space, 1.2), stationary_value(space)):
            assert math.isfinite(value) and value > 0.0

    @pytest.mark.parametrize("k,n_max", [(1, 171), (2, 85)])
    def test_larger_index_is_refused(self, k, n_max):
        # no space past the range is built, so no volume or density can be asked of one
        for n in (n_max + 1, 200):
            with pytest.raises(DomainError) as exc:
                SpaceDescriptor(n=n, k=k)
            assert str(exc.value) == (f"projective index must be <= {n_max} for k={k}, "
                                      f"got {n}: larger n overflows floating point")

    @pytest.mark.parametrize("build", [
        lambda: SpaceDescriptor._make((0, 1)),
        lambda: SpaceDescriptor._make((2, 3)),
        lambda: SpaceDescriptor(n=2, k=1)._replace(n=0),
        lambda: SpaceDescriptor(n=2, k=1)._replace(k=3),
        lambda: SpaceDescriptor(n=2, k=2)._replace(n=86),
    ], ids=["make_n", "make_k", "replace_n", "replace_k", "replace_range"])
    def test_every_way_of_building_checks(self, build):
        with pytest.raises(DomainError):
            build()

    def test_is_the_pair_n_k(self):
        # a NamedTuple: it unpacks, equals and orders as the plain pair (n, k)
        space = SpaceDescriptor(n=3, k=2)
        assert tuple(space) == (3, 2) and space == (3, 2) and hash(space) == hash((3, 2))
        assert SpaceDescriptor._make([3, 2]) == space == space._replace()
        assert SpaceDescriptor(n=1, k=2) < space
        with pytest.raises(AttributeError):
            space.n = 4

    @pytest.mark.parametrize("k", [1, 2])
    def test_stationary_value_over_the_accepted_range(self, k):
        # bit for bit the c!/(k-1)! / pi^(kn) quotient scaled by a power of two
        for n in range(1, (MAX_OFFSET + 1) // k):
            space = SpaceDescriptor(n=n, k=k)
            assert stationary_value(space).hex() == stationary_value_reference(space).hex(), n


class TestVolumeDensity:
    def _total(self, space):
        rule = gauss_legendre_rule(256)
        r = (rule.nodes + 1.0) * (math.pi / 4.0)
        return (math.pi / 4.0) * float(rule.weights @ volume_density(space, r))

    def test_hp1_total_volume(self):
        # HP^1 is the round 4-sphere of radius 1/2: (8 pi^2/3) (1/2)^4 = pi^2/6
        space = SpaceDescriptor(n=1, k=2)
        assert_allclose(self._total(space), math.pi**2 / 6.0, rtol=1e-12)
        assert_allclose(manifold_volume(space), (8.0 * math.pi**2 / 3.0) * 0.5**4, rtol=1e-15)

    def test_cp1_total_volume(self):
        # CP^1 is the round 2-sphere of radius 1/2: 4 pi (1/2)^2 = pi
        space = SpaceDescriptor(n=1, k=1)
        assert_allclose(self._total(space), math.pi, rtol=1e-12)
        assert_allclose(manifold_volume(space), math.pi, rtol=1e-15)

    @pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_total_matches_formula(self, k, n):
        space = SpaceDescriptor(n=n, k=k)
        assert_allclose(self._total(space), manifold_volume(space), rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_volume_over_the_accepted_range(self, k):
        # the one-quotient formula bit for bit wherever it returns, finite where c!
        # overflows a float (only at the largest n), and 1 / stationary_value throughout
        overflowed = []
        for n in range(1, (MAX_OFFSET + 1) // k):
            space = SpaceDescriptor(n=n, k=k)
            volume = manifold_volume(space)
            assert math.isfinite(volume) and volume > 0.0, n
            assert abs(volume * stationary_value(space) - 1.0) <= 2.3e-16, n
            try:
                reference = manifold_volume_reference(space)
            except OverflowError:
                overflowed.append(n)
                continue
            assert volume.hex() == reference.hex(), n
        assert overflowed == [(MAX_OFFSET + 1) // k - 1]

    def test_endpoint_decay(self):
        space = SpaceDescriptor(n=1, k=2)
        r = math.pi / 2 - 1e-4
        # J vanishes like cos(r)^(2k-1) at the far endpoint; 2 pi^(kn) / (kn-1)! = 2 pi^2
        assert_allclose(
            volume_density(space, r),
            2.0 * math.pi**2 * math.sin(r) ** 3 * math.cos(r) ** 3,
            rtol=1e-12,
        )
        assert volume_density(space, r) < 1e-9

    def test_domain(self):
        space = SpaceDescriptor(n=1, k=1)
        with pytest.raises(DomainError):
            volume_density(space, 0.0)
        with pytest.raises(DomainError):
            volume_density(space, math.pi / 2)
        with pytest.raises(DomainError):
            volume_density(space, math.nan)
        with pytest.raises(DomainError):
            volume_density(space, np.array([0.3, math.nan]))


class TestRadialLaplacian:
    def test_annihilates_constants(self):
        space = SpaceDescriptor(n=1, k=2)
        assert abs(radial_laplacian_fd(space, lambda r: 3.7, 0.8)) <= 1e-8

    def test_hp1_first_eigenfunction(self):
        # f(r) = 2 cos 2r (= P_1^(1,1)(cos 2r)) has eigenvalue -16 on HP^1
        space = SpaceDescriptor(n=1, k=2)
        for r in (0.3, 0.5, 0.9, 1.2):
            f = lambda rr: 2.0 * math.cos(2.0 * rr)
            lhs = radial_laplacian_fd(space, f, r, h=5e-4)
            assert abs(lhs - (-16.0) * f(r)) <= 1e-4 * max(1.0, abs(16.0 * f(r)))

    def test_cp2_first_eigenfunction(self):
        # P_1^(1,0)(cos 2r) has eigenvalue -12 on CP^2
        space = SpaceDescriptor(n=2, k=1)
        f = lambda rr: jacobi_p(1, 1, 0, math.cos(2.0 * rr))
        for r in (0.4, 0.7, 1.1):
            lhs = radial_laplacian_fd(space, f, r, h=5e-4)
            assert abs(lhs - (-12.0) * f(r)) <= 1e-4 * max(1.0, abs(12.0 * f(r)))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_eigenfunction_law_sweep(self, k, n):
        space = SpaceDescriptor(n=n, k=k)
        rs = np.linspace(0.2, 1.3, 12)
        for l in range(7):
            f = lambda rr: jacobi_p(l, k * n - 1, k - 1, math.cos(2.0 * rr))
            lam = space.eigenvalue(l)
            sup_f = max(abs(f(float(r))) for r in rs)
            scale = max(1.0, abs(lam) * sup_f)
            worst = max(
                abs(radial_laplacian_fd(space, f, float(r), h=5e-4) - lam * f(float(r)))
                for r in rs
            )
            assert worst <= 1e-4 * scale

    def test_consistent_with_density_form(self):
        # coefficient form equals J^(-1) (J f')' evaluated by finite differences
        space = SpaceDescriptor(n=2, k=2)
        f = lambda rr: math.cos(2.0 * rr) + 0.25 * math.cos(4.0 * rr)
        h = 1e-3
        for r in (0.4, 0.8, 1.2):
            coef_form = radial_laplacian_fd(space, f, r, h=5e-4)

            def jf_prime(rr):
                fp = (f(rr + h) - f(rr - h)) / (2.0 * h)
                return volume_density(space, rr) * fp

            div_form = (jf_prime(r + h) - jf_prime(r - h)) / (2.0 * h * volume_density(space, r))
            assert abs(coef_form - div_form) <= 1e-4 * max(1.0, abs(coef_form))

    def test_domain(self):
        space = SpaceDescriptor(n=1, k=1)
        with pytest.raises(DomainError):
            radial_laplacian_fd(space, lambda r: r, 1e-5, h=1e-3)

    @pytest.mark.parametrize("h", [-1.0, 0.0, math.nan])
    def test_non_positive_step_rejected(self, h):
        # a negative step widened the accepted range and sampled f outside (0, pi/2)
        def f(rr):
            raise AssertionError(f"f sampled at {rr}")

        with pytest.raises(DomainError, match="step must be positive"):
            radial_laplacian_fd(SpaceDescriptor(n=2, k=1), f, 0.5, h=h)

    def test_row_equals_scalar_calls(self):
        space = SpaceDescriptor(n=2, k=2)
        f = lambda rr: jacobi_p(3, 3, 1, np.cos(2.0 * rr))
        rs = np.linspace(0.2, 1.3, 12)
        row = radial_laplacian_fd(space, f, rs, h=5e-4)
        assert row.shape == rs.shape
        assert row.tolist() == [radial_laplacian_fd(space, f, float(r), h=5e-4) for r in rs]

    def test_rows_of_values_give_each_rows_laplacian(self):
        # f may give one row of values per function: the radius is the last axis
        space = SpaceDescriptor(n=2, k=2)
        rs = np.linspace(0.2, 1.3, 12)
        degrees = [0, 3, 6]
        rows = radial_laplacian_fd(space, lambda rr: jacobi_p(degrees, 3, 1, np.cos(2.0 * rr)),
                                   rs, h=5e-4)
        assert rows.shape == (len(degrees), rs.size)
        for row, l in zip(rows, degrees):
            assert np.all(row == radial_laplacian_fd(
                space, lambda rr: jacobi_p(l, 3, 1, np.cos(2.0 * rr)), rs, h=5e-4))

    @pytest.mark.parametrize("bad", [5e-4, math.pi / 2 - 1e-4])
    def test_row_with_one_radius_near_an_endpoint_rejected(self, bad):
        space = SpaceDescriptor(n=1, k=1)
        with pytest.raises(DomainError):
            radial_laplacian_fd(space, np.cos, np.array([0.4, bad, 0.9]), h=1e-3)


def test_space_descriptor_properties():
    space = SpaceDescriptor(n=3, k=2)
    assert space.jacobi_alpha == 5
    assert space.jacobi_beta == 1
    assert space.spectral_offset == 7
    assert space.eigenvalue(2) == -4.0 * 2 * 9
