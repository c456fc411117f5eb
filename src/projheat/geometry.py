"""Projective-space geometry: distances, volume density, radial Laplacian.

A point of P^n(F), F = C (k = 1) or H (k = 2), is a complex array whose
last axis holds k(n+1) entries: over C the homogeneous coordinates, over
H first the n+1 values a_i, then the n+1 values conj(b_i), of the
coordinates q_i = a_i + b_i j (a_i, b_i complex).  A scalar of F is
encoded as a point of P^0.  With x' and x'' the two halves of x,

    |sum_i conj(x_i) y_i|^2 = |<x, y>|^2 + |sum_i (x'_i y''_i - x''_i y'_i)|^2,

with <x, y> the inner product of C^(2(n+1)), and the geodesic distance is

    cos(dist(x, y)) = |sum_i conj(x_i) y_i| / (|x| |y|),

so distances range over [0, pi/2].  The geodesic-polar volume density and
the radial part of the Laplace-Beltrami operator are

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


def _unit_points(space: SpaceDescriptor, x) -> np.ndarray:
    """Encoded points x, checked and scaled to unit length.

    Dividing by the largest entry modulus first keeps the norm from overflowing.
    """
    x = np.asarray(x, dtype=complex)
    width = space.k * (space.n + 1)
    if x.shape[-1:] != (width,):
        raise DomainError(f"need {width} complex entries per point, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("coordinates must be finite")
    top = np.max(np.abs(x), axis=-1, keepdims=True)
    if np.any(top == 0.0):
        raise DomainError("coordinate vector must be nonzero")
    x = x / top
    return x / np.linalg.vector_norm(x, axis=-1, keepdims=True)


def distance(space: SpaceDescriptor, x, y):
    """Geodesic distance between encoded points x and y, one per pair.

    x and y broadcast over their leading axes; two single points give a
    scalar.  On unit points it is 2 arcsin(|x - y s| / 2), with s the unit
    scalar of F that brings y s nearest to x: s = conj(<x, y>_F) / |.|,
    encoded over H as (conj(<x, y>), -w) / |.| with w = sum_i (x'_i y''_i -
    x''_i y'_i), and s = 1 where <x, y>_F = 0.  Unlike arccos of the cosine,
    this keeps full relative accuracy near 0.  Both orders of the pair are
    averaged, so distance(y, x) == distance(x, y) bit for bit.  Raises
    DomainError for a last axis of the wrong length, a non-finite
    coordinate or a zero point.
    """
    x, y = np.broadcast_arrays(_unit_points(space, x), _unit_points(space, y))
    a, b = np.stack([x, y]), np.stack([y, x])
    s = np.expand_dims(np.vecdot(a, b).conj(), -1)
    if space.k == 2:
        h = space.n + 1
        w = np.vecdot(a[..., :h].conj(), b[..., h:]) - np.vecdot(a[..., h:].conj(), b[..., :h])
        s = np.concatenate([s, -np.expand_dims(w, -1)], axis=-1)
    size = np.linalg.vector_norm(s, axis=-1, keepdims=True)
    s[..., :1] += size == 0.0  # any unit s serves there: take 1
    gap = np.linalg.vector_norm(a - scale_point(b, s / (size + (size == 0.0))), axis=-1)
    return np.minimum(2.0 * np.arcsin(0.25 * (gap[0] + gap[1])), _HALF_PI)


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


def scale_point(p, s) -> np.ndarray:
    """Right-multiply each coordinate of the encoded point p by the encoded scalar s.

    Over H, (a + b j)(c + d j) = (a c - b conj(d)) + (a d + b conj(c)) j.
    """
    p = np.asarray(p, dtype=complex)
    s = np.asarray(s, dtype=complex)
    if s.shape[-1] == 1:
        return p * s
    h = p.shape[-1] // 2
    p1, p2, s1, s2 = p[..., :h], p[..., h:], s[..., :1], s[..., 1:]
    return np.concatenate([p1 * s1 - p2.conj() * s2, p1.conj() * s2 + p2 * s1], axis=-1)
