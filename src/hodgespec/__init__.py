"""Exact spectra of the operator family alpha d delta + beta delta d.

The package computes truncated eigenvalue multisets of F = alpha d delta +
beta delta d on p-forms of flat tori R^n / Lattice and round spheres S^n,
decides isospectrality up to a cutoff, and runs the constructive inverse
algorithms that read parameters back off a spectrum.  Everything is exact:
rationals throughout, no floating point anywhere.
"""

from . import isospec, lattice, linalg, multiset, rationals, sphere, torus
from .errors import (
    BoxTooLarge,
    BranchAmbiguous,
    BudgetExceeded,
    CutoffExceeded,
    CutoffTooSmall,
    DegreeOutOfRange,
    EmptyInput,
    EmptySpectrum,
    Error,
    NonpositiveMin,
    NonpositiveScalar,
    NotInImage,
    ParseError,
    SingularBasis,
    UnitMismatch,
    UnrepresentedNorm,
)
from .isospec import (
    RecoveryResult,
    first_divergence,
    is_isospectral_upto,
    reconstruct_base,
    recover_radius,
    recover_sphere_params,
    recover_torus_params,
)
from .lattice import (
    BUDGET_ENV_VAR,
    DEFAULT_BUDGET,
    DualData,
    Lattice,
    brute_force_enumerate,
    count_norm,
    dual,
    enumerate_norms,
    standard_lattice,
)
from .multiset import Unit, WeightedSpectrum, repeated_union
from .rationals import format_rational, parse_rational, sqrt_floor
from .sphere import (
    Series,
    SphereEigenvalue,
    SphereOperator,
    coincidences,
    dim_V,
    dim_W,
    eigenvalue_details,
    harmonic_polynomial_dim,
    lambda_k,
    mu_k,
)
from .torus import (
    Branch,
    TorusOperator,
    eigenvalue_multiplicity,
    f_spectrum,
    f_spectrum_parts,
    laplace0_spectrum,
)

__version__ = "0.1.0"

# Every public name bound above is a re-export, apart from the errors module
# itself (its classes are re-exported one by one).
__all__ = sorted(name for name in globals() if not name.startswith("_") and name != "errors")
