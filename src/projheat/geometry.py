"""Projective-space geometry: the space descriptor, volume density, radial Laplacian.

On P^n(F), F = C (k = 1) or H (k = 2), geodesic distances range over
[0, pi/2], and the kernels depend on a pair of points only through their
distance d.  The geodesic-polar volume density and the radial part of the
Laplace-Beltrami operator are

    J(r)    = (2 pi^(kn) / (kn-1)!) sin(r)^(2kn-1) cos(r)^(2k-1),
    Delta f = f'' + ((2kn-1) cot(r) - (2k-1) tan(r)) f' = J^(-1) (J f')'.

With this normalization the functions r -> P_l^(kn-1, k-1)(cos 2r) are
eigenfunctions with eigenvalue -4 l (l + kn + k - 1), matching the decay
rates of the spectral kernels, and integral of J over [0, pi/2] is the
manifold volume, pi^(kn) (k-1)!/c! with c = k(n+1) - 1; its reciprocal is the
kernel's long-time limit (``verify`` computes both).  ``SpaceDescriptor`` owns
the accepted range of (k, n): c <= MAX_OFFSET, so that every factorial the
kernels and the suite read converts to a float.  The Laplacian here is
evaluated by central differences: it serves as an independent check on
closed-form results, so it must not share code with them.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError

_HALF_PI = 0.5 * math.pi

#: largest c = k(n+1) - 1 accepted: (c-1)! in the series weights and in
#: the integral's ladder scale must convert to a float
MAX_OFFSET = 171


class _Index(NamedTuple):
    n: int
    k: int


class SpaceDescriptor(_Index):
    """Projective space P^n(F) with k = half the real dimension of F.

    A named pair (n, k), checked however it is built, by ``_make`` and
    ``_replace`` too.  It is a tuple: it unpacks into (n, k), and equals
    and orders as that plain pair does.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int):
        space = super().__new__(cls, n, k)
        space.__post_init__()
        return space

    @classmethod
    def _make(cls, iterable):  # the tuple's own _make, which _replace calls, would skip the checks
        return cls(*iterable)

    def __post_init__(self):  # run by __new__; the boundary walk follows a class by this name
        try:  # numpy integers pass, floats do not
            operator.index(self.n), operator.index(self.k)
        except TypeError:
            raise DomainError(f"n and k must be integers, got n={self.n!r}, k={self.k!r}") from None
        if self.n < 1:
            raise DomainError(f"projective index must be >= 1, got {self.n}")
        if self.k not in (1, 2):
            raise DomainError(f"field selector must be 1 (complex) or 2 (quaternionic), got {self.k}")
        if self.spectral_offset > MAX_OFFSET:
            raise DomainError(f"projective index must be <= {(MAX_OFFSET + 1) // self.k - 1} "
                              f"for k={self.k}, got {self.n}: larger n overflows floating point")

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


def volume_density(space: SpaceDescriptor, r):
    """Geodesic-polar volume density J(r) on (0, pi/2), vectorized in r."""
    r_arr = np.asarray(r, dtype=float)
    if not np.all((0.0 < r_arr) & (r_arr < _HALF_PI)):
        raise DomainError("radius must lie strictly inside (0, pi/2)")
    kn = space.k * space.n
    vals = (2.0 * math.pi**kn / math.factorial(kn - 1) * np.sin(r_arr) ** (2 * kn - 1)
            * np.cos(r_arr) ** (2 * space.k - 1))
    return float(vals) if np.ndim(r) == 0 else vals


def radial_laplacian_fd(space: SpaceDescriptor, f: Callable, r, h: float = 1e-3):
    """Central-difference radial Laplacian of f at r, a radius or a row of radii.

    Evaluates f'' + ((2kn-1) cot r - (2k-1) tan r) f' from three samples;
    deliberately numerical so it can certify closed-form eigenvalue and
    heat-equation claims independently.  Given a row, f is called on the
    whole row (shifted by -h, 0 and +h) and must return one value per
    radius, or rows of them with the radius as the last axis: several
    functions at once, each row its own Laplacian.
    """
    if not h > 0:  # NaN fails too
        raise DomainError(f"step must be positive, got {h}")
    r = np.asarray(r, dtype=float)
    if not np.all((h < r) & (r < _HALF_PI - h)):
        raise DomainError(f"radius {r} too close to the coordinate endpoints for step {h}")
    f_plus = f(r + h)
    f_mid = f(r)
    f_minus = f(r - h)
    second = (f_plus - 2.0 * f_mid + f_minus) / (h * h)
    first = (f_plus - f_minus) / (2.0 * h)
    kn = space.k * space.n
    coef = (2 * kn - 1) / np.tan(r) - (2 * space.k - 1) * np.tan(r)
    return second + coef * first
