"""Heat kernels on complex and quaternionic projective space.

The kernel on P^n(F) (F = C or H) is evaluated through two independent
closed forms: a spectral series in Jacobi polynomials and an integral of
a theta-type series against a square-root endpoint weight.  The package
exports the one entry point ``unified``, its ``KernelValue`` record and
the error classes; everything else is imported from its own module.  The
``verify`` module certifies the two forms' agreement together with every
identity the construction uses; the ``cli`` module exposes evaluation,
tables, comparisons and the self-test from the command line.
"""

from .errors import (
    DomainError,
    ProjheatError,
    QuadratureConvergenceError,
    TruncationCapError,
)
from .kernels import KernelValue, unified

__version__ = "0.1.0"
