"""Heat kernels on complex and quaternionic projective space.

The kernel on P^n(F) (F = C or H) is evaluated through two independent
closed forms: a spectral series in Jacobi polynomials and an integral of
a theta-type series against a square-root endpoint weight.  The
``verify`` module certifies their agreement together with every identity
the construction uses; the ``cli`` module exposes evaluation, tables,
comparisons and the self-test from the command line.
"""

from .errors import (
    DomainError,
    ProjheatError,
    QuadratureConvergenceError,
    TruncationCapError,
)
from .geometry import (
    HomogeneousPoint,
    Quaternion,
    SpaceDescriptor,
    distance,
    manifold_volume,
    radial_laplacian_fd,
    volume_density,
)
from .kernels import (
    KernelValue,
    series_values,
    stationary_value,
    unified,
)
from .quadrature import (
    QuadratureRule,
    adaptive_integrate_row,
    gauss_legendre_rule,
    integrate_weighted,
)
from .thetapsi import (
    jacobi_theta2_reference,
    psi_sum,
    theta_sum,
)
from .verify import (
    SuiteProfile,
    VerificationReport,
    full_suite,
    jacobi_rep_check,
    lemma_check,
    theta2_relation_check,
)

__version__ = "0.1.0"
