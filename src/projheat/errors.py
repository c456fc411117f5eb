"""Exception types shared across the package."""


class ProjheatError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(ProjheatError, ValueError):
    """An argument lies outside the mathematically valid domain."""


class TruncationCapError(ProjheatError, RuntimeError):
    """A series hit its term cap before the tail bound met the tolerance.

    Usually means the diffusion time is too small for the requested tolerance.
    """


class QuadratureConvergenceError(ProjheatError, RuntimeError):
    """Adaptive quadrature exhausted its node budget without converging."""
