"""Projective-space geometry: distances, volume density, radial Laplacian.

A point of P^n(F) is a homogeneous coordinate vector over F = C (k = 1)
or F = H (k = 2); the geodesic distance is

    cos(dist(x, y)) = |sum_i conj(x_i) y_i| / (|x| |y|),

so distances range over [0, pi/2].  The geodesic-polar volume density and
the radial part of the Laplace-Beltrami operator are

    J(r)    = (2 pi^(kn) / (kn-1)!) sin(r)^(2kn-1) cos(r)^(2k-1),
    Delta f = f'' + ((2kn-1) cot(r) - (2k-1) tan(r)) f' = J^(-1) (J f')'.

With this normalization the functions r -> P_l^(kn-1, k-1)(cos 2r) are
eigenfunctions with eigenvalue -4 l (l + kn + k - 1), matching the decay
rates of the spectral kernels, and integral of J over [0, pi/2] is the
manifold volume.  The Laplacian here is evaluated by central differences:
it serves as an independent check on closed-form results, so it must not
share code with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DomainError

_HALF_PI = 0.5 * math.pi
_COS_CLAMP_SLACK = 1e-12


@dataclass(frozen=True)
class Quaternion:
    """Quaternion w + x i + y j + z k over the reals."""

    w: float
    x: float
    y: float
    z: float

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w**2 + self.x**2 + self.y**2 + self.z**2

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    @classmethod
    def zero(cls) -> "Quaternion":
        return cls(0.0, 0.0, 0.0, 0.0)

    @classmethod
    def unit_j(cls) -> "Quaternion":
        return cls(0.0, 0.0, 1.0, 0.0)


@dataclass(frozen=True)
class SpaceDescriptor:
    """Projective space P^n(F) with k = half the real dimension of F."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"projective index must be >= 1, got {self.n}")
        if self.k not in (1, 2):
            raise DomainError(f"field selector must be 1 (complex) or 2 (quaternionic), got {self.k}")

    @property
    def real_dimension(self) -> int:
        return 2 * self.k * self.n

    @property
    def jacobi_alpha(self) -> int:
        return self.k * self.n - 1

    @property
    def jacobi_beta(self) -> int:
        return self.k - 1

    @property
    def spectral_offset(self) -> int:
        """The constant c = k(n+1) - 1 appearing in degrees and decay rates."""
        return self.k * (self.n + 1) - 1

    def eigenvalue(self, l: int) -> float:
        """Laplacian eigenvalue on the degree-l radial eigenfunction."""
        return -4.0 * l * (l + self.spectral_offset)


@dataclass(frozen=True)
class HomogeneousPoint:
    """Nonzero homogeneous coordinate vector over C (field_k=1) or H (field_k=2)."""

    field_k: int
    coords: tuple

    def __post_init__(self):
        if self.field_k not in (1, 2):
            raise DomainError(f"field selector must be 1 or 2, got {self.field_k}")
        if len(self.coords) == 0:
            raise DomainError("coordinate vector must be non-empty")
        if self.field_k == 1:
            if not all(isinstance(c, (complex, float, int)) for c in self.coords):
                raise DomainError("complex point requires complex coordinates")
            if all(abs(complex(c)) == 0.0 for c in self.coords):
                raise DomainError("coordinate vector must be nonzero")
        else:
            if not all(isinstance(c, Quaternion) for c in self.coords):
                raise DomainError("quaternionic point requires Quaternion coordinates")
            if all(c.norm_sq() == 0.0 for c in self.coords):
                raise DomainError("coordinate vector must be nonzero")

    @classmethod
    def complex_point(cls, *coords: Union[complex, float]) -> "HomogeneousPoint":
        return cls(field_k=1, coords=tuple(complex(c) for c in coords))

    @classmethod
    def quaternion_point(cls, *coords: Quaternion) -> "HomogeneousPoint":
        return cls(field_k=2, coords=tuple(coords))


def _point_sort_key(p: HomogeneousPoint):
    if p.field_k == 1:
        return tuple(v for c in p.coords for v in (complex(c).real, complex(c).imag))
    return tuple(v for q in p.coords for v in (q.w, q.x, q.y, q.z))


def distance(space: SpaceDescriptor, x: HomogeneousPoint, y: HomogeneousPoint) -> float:
    """Geodesic distance between two points of the given projective space.

    The arguments are put in a canonical order first: quaternion products
    evaluate the two inner products sum(conj(x) y) and sum(conj(y) x) with
    different rounding, and symmetry is required to hold exactly.
    """
    if x.field_k != space.k or y.field_k != space.k:
        raise DomainError("point field does not match the space")
    if len(x.coords) != space.n + 1 or len(y.coords) != space.n + 1:
        raise DomainError(
            f"need {space.n + 1} homogeneous coordinates for n={space.n}"
        )
    if _point_sort_key(y) < _point_sort_key(x):
        x, y = y, x
    if space.k == 1:
        inner = sum(complex(a).conjugate() * complex(b)
                    for a, b in zip(x.coords, y.coords))
        inner_abs = abs(inner)
        nx = math.sqrt(sum(abs(complex(a)) ** 2 for a in x.coords))
        ny = math.sqrt(sum(abs(complex(b)) ** 2 for b in y.coords))
    else:
        inner_q = Quaternion.zero()
        for a, b in zip(x.coords, y.coords):
            inner_q = inner_q + a.conjugate() * b
        inner_abs = abs(inner_q)
        nx = math.sqrt(sum(a.norm_sq() for a in x.coords))
        ny = math.sqrt(sum(b.norm_sq() for b in y.coords))
    if nx == 0.0 or ny == 0.0:
        raise DomainError("coordinate vector must be nonzero")
    ratio = inner_abs / (nx * ny)
    if ratio > 1.0 + _COS_CLAMP_SLACK:
        raise DomainError(f"cosine ratio {ratio} exceeds 1 beyond roundoff")
    return math.acos(min(ratio, 1.0))


def manifold_volume(space: SpaceDescriptor) -> float:
    """Total Riemannian volume, the reciprocal of the flat long-time kernel value."""
    c = space.spectral_offset
    return math.factorial(space.k - 1) * math.pi ** (space.k * space.n) / math.factorial(c)


def density_constant(space: SpaceDescriptor) -> float:
    """Prefactor of the radial volume density, 2 pi^(kn) / (kn-1)!."""
    kn = space.k * space.n
    return 2.0 * math.pi**kn / math.factorial(kn - 1)


def volume_density(space: SpaceDescriptor, r):
    """Geodesic-polar volume density J(r) on (0, pi/2), vectorized in r."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0) or np.any(r_arr >= _HALF_PI):
        raise DomainError("radius must lie strictly inside (0, pi/2)")
    kn = space.k * space.n
    vals = density_constant(space) * np.sin(r_arr) ** (2 * kn - 1) * np.cos(r_arr) ** (
        2 * space.k - 1
    )
    return float(vals) if np.ndim(r) == 0 else vals


def radial_laplacian_fd(space: SpaceDescriptor, f: Callable[[float], float],
                        r: float, h: float = 1e-3) -> float:
    """Central-difference radial Laplacian of f at r.

    Evaluates f'' + ((2kn-1) cot r - (2k-1) tan r) f' from three samples;
    deliberately numerical so it can certify closed-form eigenvalue and
    heat-equation claims independently.
    """
    if not (h < r < _HALF_PI - h):
        raise DomainError(f"radius {r} too close to the coordinate endpoints for step {h}")
    f_plus = f(r + h)
    f_mid = f(r)
    f_minus = f(r - h)
    second = (f_plus - 2.0 * f_mid + f_minus) / (h * h)
    first = (f_plus - f_minus) / (2.0 * h)
    kn = space.k * space.n
    coef = (2 * kn - 1) / math.tan(r) - (2 * space.k - 1) * math.tan(r)
    return second + coef * first


def random_unit_scalar(space_k: int, rng: np.random.Generator):
    """Unit-modulus scalar of the coordinate field, for invariance tests."""
    v = rng.normal(size=2 if space_k == 1 else 4)
    v = v / np.linalg.norm(v)
    if space_k == 1:
        return complex(v[0], v[1])
    return Quaternion(*map(float, v))


def scale_point(p: HomogeneousPoint, s) -> HomogeneousPoint:
    """Right-multiply every homogeneous coordinate by the scalar s."""
    if p.field_k == 1:
        return HomogeneousPoint(field_k=1, coords=tuple(complex(c) * s for c in p.coords))
    return HomogeneousPoint(field_k=2, coords=tuple(c * s for c in p.coords))
