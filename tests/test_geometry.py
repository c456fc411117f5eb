"""Tests for projective geometry, the volume density and the radial Laplacian."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from projheat.errors import DomainError
from projheat.geometry import (
    HomogeneousPoint,
    Quaternion,
    SpaceDescriptor,
    density_constant,
    distance,
    manifold_volume,
    radial_laplacian_fd,
    random_unit_scalar,
    scale_point,
    volume_density,
)
from projheat.orthopoly import jacobi_p
from projheat.quadrature import gauss_legendre_rule


class TestQuaternion:
    def test_multiplication_table(self):
        i = Quaternion(0, 1, 0, 0)
        j = Quaternion(0, 0, 1, 0)
        k = Quaternion(0, 0, 0, 1)
        assert i * j == k
        assert j * i == Quaternion(0, 0, 0, -1)
        assert i * i == Quaternion(-1, 0, 0, 0)

    def test_norm_is_multiplicative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = Quaternion(*map(float, rng.normal(size=4)))
            q = Quaternion(*map(float, rng.normal(size=4)))
            assert abs(abs(p * q) - abs(p) * abs(q)) <= 1e-14 * abs(p) * abs(q)

    def test_conjugation(self):
        q = Quaternion(1.0, 2.0, -3.0, 0.5)
        c = q.conjugate()
        assert (c.w, c.x, c.y, c.z) == (1.0, -2.0, 3.0, -0.5)
        prod = q * c
        assert_allclose(prod.w, q.norm_sq(), rtol=1e-15)
        assert_allclose((prod.x, prod.y, prod.z), (0.0, 0.0, 0.0), atol=1e-15)


class TestDistance:
    def test_identical_points(self):
        space = SpaceDescriptor(n=2, k=1)
        x = HomogeneousPoint.complex_point(1, 0, 0)
        assert distance(space, x, x) == 0.0

    def test_orthogonal_points(self):
        space = SpaceDescriptor(n=2, k=1)
        x = HomogeneousPoint.complex_point(1, 0, 0)
        y = HomogeneousPoint.complex_point(0, 1, 0)
        assert_allclose(distance(space, x, y), math.pi / 2, rtol=1e-15)

    def test_quaternionic_example(self):
        # x = [1, 0], y = [1, j]: |sum| = 1, |x| = 1, |y| = sqrt 2 -> pi/4
        space = SpaceDescriptor(n=1, k=2)
        one = Quaternion(1, 0, 0, 0)
        zero = Quaternion.zero()
        x = HomogeneousPoint.quaternion_point(one, zero)
        y = HomogeneousPoint.quaternion_point(one, Quaternion.unit_j())
        assert_allclose(distance(space, x, y), math.acos(1.0 / math.sqrt(2.0)), rtol=1e-15)
        assert_allclose(distance(space, x, y), math.pi / 4, rtol=1e-15)

    @pytest.mark.parametrize("k", [1, 2])
    def test_projective_invariance_and_symmetry(self, k):
        rng = np.random.default_rng(11)
        space = SpaceDescriptor(n=2, k=k)
        for _ in range(30):
            if k == 1:
                x = HomogeneousPoint(1, tuple(complex(*rng.normal(size=2)) for _ in range(3)))
                y = HomogeneousPoint(1, tuple(complex(*rng.normal(size=2)) for _ in range(3)))
            else:
                x = HomogeneousPoint(
                    2, tuple(Quaternion(*map(float, rng.normal(size=4))) for _ in range(3))
                )
                y = HomogeneousPoint(
                    2, tuple(Quaternion(*map(float, rng.normal(size=4))) for _ in range(3))
                )
            base = distance(space, x, y)
            assert distance(space, y, x) == base
            q1 = random_unit_scalar(k, rng)
            q2 = random_unit_scalar(k, rng)
            moved = distance(space, scale_point(x, q1), scale_point(y, q2))
            assert abs(moved - base) <= 1e-12

    def test_validation(self):
        space = SpaceDescriptor(n=2, k=1)
        with pytest.raises(DomainError):
            distance(space, HomogeneousPoint.complex_point(1, 0),
                     HomogeneousPoint.complex_point(1, 0, 0))
        with pytest.raises(DomainError):
            HomogeneousPoint.complex_point(0, 0, 0)
        with pytest.raises(DomainError):
            distance(space, HomogeneousPoint.complex_point(1, 0, 0),
                     HomogeneousPoint.quaternion_point(Quaternion(1, 0, 0, 0)))
        with pytest.raises(DomainError):
            SpaceDescriptor(n=0, k=1)
        with pytest.raises(DomainError):
            SpaceDescriptor(n=1, k=3)


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

    def test_endpoint_decay(self):
        space = SpaceDescriptor(n=1, k=2)
        r = math.pi / 2 - 1e-4
        # J vanishes like cos(r)^(2k-1) at the far endpoint
        assert_allclose(
            volume_density(space, r),
            density_constant(space) * math.sin(r) ** 3 * math.cos(r) ** 3,
            rtol=1e-12,
        )
        assert volume_density(space, r) < 1e-9

    def test_domain(self):
        space = SpaceDescriptor(n=1, k=1)
        with pytest.raises(DomainError):
            volume_density(space, 0.0)
        with pytest.raises(DomainError):
            volume_density(space, math.pi / 2)


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

    def test_row_equals_scalar_calls(self):
        space = SpaceDescriptor(n=2, k=2)
        f = lambda rr: jacobi_p(3, 3, 1, np.cos(2.0 * rr))
        rs = np.linspace(0.2, 1.3, 12)
        row = radial_laplacian_fd(space, f, rs, h=5e-4)
        assert row.shape == rs.shape
        assert row.tolist() == [radial_laplacian_fd(space, f, float(r), h=5e-4) for r in rs]

    @pytest.mark.parametrize("bad", [5e-4, math.pi / 2 - 1e-4])
    def test_row_with_one_radius_near_an_endpoint_rejected(self, bad):
        space = SpaceDescriptor(n=1, k=1)
        with pytest.raises(DomainError):
            radial_laplacian_fd(space, np.cos, np.array([0.4, bad, 0.9]), h=1e-3)


def test_space_descriptor_properties():
    space = SpaceDescriptor(n=3, k=2)
    assert space.real_dimension == 12
    assert space.jacobi_alpha == 5
    assert space.jacobi_beta == 1
    assert space.spectral_offset == 7
    assert space.eigenvalue(2) == -4.0 * 2 * 9
