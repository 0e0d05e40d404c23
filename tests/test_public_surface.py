"""The public names of the package, pinned: adding or dropping one edits this file."""

import importlib
import pkgutil

import pytest

import hodgespec

MODULE_SURFACE = {
    "cli": {"main"},
    "errors": {
        "Error",
        "ParseError",
        "UnitMismatch",
        "NonpositiveScalar",
        "EmptySpectrum",
        "CutoffExceeded",
        "DegreeOutOfRange",
        "SingularBasis",
        "BoxTooLarge",
        "BudgetExceeded",
        "UnrepresentedNorm",
        "NotInImage",
        "EmptyInput",
        "BranchAmbiguous",
        "CutoffTooSmall",
        "NonpositiveMin",
    },
    "isospec": {
        "BRANCH_ALPHA_FIRST",
        "BRANCH_BETA_FIRST",
        "BRANCH_COINCIDENT",
        "BRANCH_UNORDERED",
        "RecoveryResult",
        "is_isospectral_upto",
        "first_divergence",
        "reconstruct_base",
        "recover_torus_params",
        "recover_sphere_params",
        "recover_radius",
    },
    "lattice": {
        "Lattice",
        "DualData",
        "standard_lattice",
        "dual",
        "enumerate_norms",
        "count_norm",
        "brute_force_enumerate",
        "DEFAULT_BUDGET",
        "BUDGET_ENV_VAR",
    },
    "linalg": {"identity", "gram"},
    "multiset": {"Unit", "WeightedSpectrum", "repeated_union"},
    "rationals": {"parse_rational", "format_rational", "sqrt_floor"},
    "sphere": {
        "Series",
        "SeriesTerm",
        "SphereEigenvalue",
        "SphereOperator",
        "lambda_k",
        "mu_k",
        "dim_V",
        "dim_W",
        "harmonic_polynomial_dim",
        "spectrum_parts",
        "spectrum",
        "eigenvalue_details",
        "coincidences",
    },
    "torus": {
        "Branch",
        "TorusOperator",
        "laplace0_spectrum",
        "f_spectrum",
        "f_spectrum_parts",
        "eigenvalue_multiplicity",
    },
}

PACKAGE_SURFACE = {
    # submodules
    "isospec",
    "lattice",
    "linalg",
    "multiset",
    "rationals",
    "sphere",
    "torus",
    # errors
    "BoxTooLarge",
    "BranchAmbiguous",
    "BudgetExceeded",
    "CutoffExceeded",
    "CutoffTooSmall",
    "DegreeOutOfRange",
    "EmptyInput",
    "EmptySpectrum",
    "Error",
    "NonpositiveMin",
    "NonpositiveScalar",
    "NotInImage",
    "ParseError",
    "SingularBasis",
    "UnitMismatch",
    "UnrepresentedNorm",
    # isospec
    "RecoveryResult",
    "first_divergence",
    "is_isospectral_upto",
    "reconstruct_base",
    "recover_radius",
    "recover_sphere_params",
    "recover_torus_params",
    # lattice
    "BUDGET_ENV_VAR",
    "DEFAULT_BUDGET",
    "DualData",
    "Lattice",
    "brute_force_enumerate",
    "count_norm",
    "dual",
    "enumerate_norms",
    "standard_lattice",
    # multiset
    "Unit",
    "WeightedSpectrum",
    "repeated_union",
    # rationals
    "format_rational",
    "parse_rational",
    "sqrt_floor",
    # sphere
    "Series",
    "SphereEigenvalue",
    "SphereOperator",
    "coincidences",
    "dim_V",
    "dim_W",
    "eigenvalue_details",
    "harmonic_polynomial_dim",
    "lambda_k",
    "mu_k",
    # torus
    "Branch",
    "TorusOperator",
    "eigenvalue_multiplicity",
    "f_spectrum",
    "f_spectrum_parts",
    "laplace0_spectrum",
}


def test_package_surface():
    assert len(PACKAGE_SURFACE) == 61
    assert sorted(hodgespec.__all__) == sorted(PACKAGE_SURFACE)


def test_every_module_is_pinned():
    assert {info.name for info in pkgutil.iter_modules(hodgespec.__path__)} == set(MODULE_SURFACE)


@pytest.mark.parametrize("name", sorted(MODULE_SURFACE))
def test_module_surface(name):
    public = importlib.import_module(f"hodgespec.{name}").__all__
    assert sorted(public) == sorted(MODULE_SURFACE[name])
