"""The public names of the package, pinned: adding or dropping one edits this file."""

import importlib
import inspect
import pkgutil
from fractions import Fraction as F

import pytest

import hodgespec
from hodgespec import (
    Lattice, RecoveryResult, Series, SphereOperator, TorusOperator, Unit, WeightedSpectrum, dual,
    eigenvalue_details,
)
from hodgespec.isospec import BRANCH_ALPHA_FIRST
from hodgespec.sphere import SeriesTerm

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


# The public records, each with its repr and constructor signature as pinned
# when they were frozen dataclasses: (name, default) per parameter.
CUBE = ((1, 0), (0, 2))
CUBE_REPR = "Lattice(basis=((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(2, 1))))"
REQUIRED = inspect.Parameter.empty
RECORDS = {
    "Lattice": (
        lambda: Lattice(CUBE),
        CUBE_REPR,
        [("basis", REQUIRED)],
    ),
    "DualData": (
        lambda: dual(Lattice(CUBE)),
        f"DualData(lattice={CUBE_REPR}, clear=(1, 1), terms=((), ()), weights=(4, 1), scale=4)",
        [(name, REQUIRED) for name in ("lattice", "clear", "terms", "weights", "scale")],
    ),
    "WeightedSpectrum": (
        lambda: WeightedSpectrum(Unit.PLAIN, 3, [(0, 1), (F(1, 2), 2)]),
        "WeightedSpectrum(unit=<Unit.PLAIN: 'plain'>, cutoff=Fraction(3, 1), _den=2, "
        "_ints=((0, 1), (1, 2)))",
        [(name, REQUIRED) for name in ("unit", "cutoff", "entries")],
    ),
    "TorusOperator": (
        lambda: TorusOperator(Lattice(CUBE), 1, 1, F(2)),
        f"TorusOperator(lattice={CUBE_REPR}, p=1, alpha=Fraction(1, 1), beta=Fraction(2, 1), "
        "generic=False)",
        [*((name, REQUIRED) for name in ("lattice", "p", "alpha", "beta")), ("generic", False)],
    ),
    "SphereOperator": (
        lambda: SphereOperator(3, 1, 1, 2),
        "SphereOperator(n=3, p=1, alpha=Fraction(1, 1), beta=Fraction(2, 1), "
        "r_squared=Fraction(1, 1), generic=False)",
        [*((name, REQUIRED) for name in ("n", "p", "alpha", "beta")), ("r_squared", F(1)),
         ("generic", False)],
    ),
    "SeriesTerm": (
        lambda: SeriesTerm(Series.MU, 0, 6),
        "SeriesTerm(series=<Series.MU: 'mu'>, k=0, dim=6)",
        [(name, REQUIRED) for name in ("series", "k", "dim")],
    ),
    "SphereEigenvalue": (
        lambda: eigenvalue_details(SphereOperator(3, 1, 1, 2), 3)[0],
        "SphereEigenvalue(value=Fraction(3, 1), "
        "terms=(SeriesTerm(series=<Series.MU: 'mu'>, k=0, dim=4),))",
        [(name, REQUIRED) for name in ("value", "terms")],
    ),
    "RecoveryResult": (
        lambda: RecoveryResult("ordered", (F(1), F(2)), (BRANCH_ALPHA_FIRST,)),
        "RecoveryResult(kind='ordered', values=(Fraction(1, 1), Fraction(2, 1)), "
        "branch_trace=('alpha-series-first',))",
        [(name, REQUIRED) for name in ("kind", "values", "branch_trace")],
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_and_signature_are_pinned(name):
    build, shown, parameters = RECORDS[name]
    record = build()
    assert type(record).__name__ == name and repr(record) == shown
    signature = inspect.signature(type(record)).parameters.values()
    assert [(parameter.name, parameter.default) for parameter in signature] == parameters


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_frozen_and_hashes_by_value(name):
    build = RECORDS[name][0]
    record, twin = build(), build()
    assert record is not twin and record == twin and hash(record) == hash(twin)
    for field in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == twin and repr(record) == RECORDS[name][1]


def test_records_of_different_classes_never_compare_equal():
    records = [build() for build, _, _ in RECORDS.values()]
    for record in records:
        values = tuple(getattr(record, field) for field in record._fields)
        assert record != values and values != record
        for other in records:
            assert (record == other) == (record is other)
