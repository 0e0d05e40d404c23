from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from hodgespec import linalg
from hodgespec.errors import (
    CutoffExceeded,
    DegreeOutOfRange,
    NonpositiveMin,
    NonpositiveScalar,
    ParseError,
    UnrepresentedNorm,
)
from hodgespec.isospec import (
    first_divergence,
    reconstruct_base,
    recover_radius,
    recover_sphere_params,
    recover_torus_params,
)
from hodgespec.lattice import Lattice, count_norm, dual, enumerate_norms, standard_lattice
from hodgespec.multiset import Unit, WeightedSpectrum, repeated_union
from hodgespec.rationals import _echo, _echo_number, format_rational, parse_rational, sqrt_floor
from hodgespec.sphere import (
    SphereOperator,
    coincidences,
    dim_V,
    dim_W,
    eigenvalue_details,
    harmonic_polynomial_dim,
    lambda_k,
    mu_k,
    spectrum,
    spectrum_parts,
)
from hodgespec.torus import (
    Branch,
    TorusOperator,
    eigenvalue_multiplicity,
    f_spectrum,
    f_spectrum_parts,
    laplace0_spectrum,
)

from oracles import ldlt, rank


def test_parse_accepts_integers_and_fractions():
    assert parse_rational("3") == 3
    assert parse_rational("-3") == -3
    assert parse_rational("+3/4") == F(3, 4)
    assert parse_rational(" 6/8 ") == F(3, 4)


# int() would read every Unicode decimal digit and "_" separators; the wire
# format takes ASCII digits only
@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "a", "3/", "/4", "3/0", "1/-2", "1 / 2",
                                 "١", "٣", "３/４", "3/٤", "𝟘", "1_0"])
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", ["[" * 900 + "]" * 900, "x" * 5000, "7" * 3000 + "/0"])
def test_parse_error_echoes_a_bounded_prefix(bad):
    with pytest.raises(ParseError) as raised:
        parse_rational(bad)
    message = str(raised.value)
    assert repr(bad)[:80] + "..." in message
    assert len(message) < 160


def test_echo_number_names_long_numbers_by_their_digits():
    assert _echo_number(10**80 - 1) == "9" * 80
    assert _echo_number(-(10**80) + 1) == "-" + "9" * 80
    assert _echo_number(F(-(10**80) + 1, 19)) == "-" + "9" * 80 + "/19"
    for size in (81, 300, 4301, 30103):  # none a multiple of 16, so 17 divides no value
        for value in (10 ** (size - 1), 10**size - 1, -(7 * 10 ** (size - 1))):
            sign = "negative " if value < 0 else ""
            assert _echo_number(value) == f"a {sign}{size}-digit integer"
            over = f"a {sign}fraction of a {size}-digit over a 2-digit integer"
            assert (_echo_number(F(value, 17)), _echo_number(F(17, value))) == (
                over, f"a {sign}fraction of a 2-digit over a {size}-digit integer"
            )


def test_echo_number_keeps_the_sign_of_long_numbers():
    assert _echo_number(10**100) == "a 101-digit integer"
    assert _echo_number(-(10**100)) == "a negative 101-digit integer"
    assert _echo_number(F(-(10**100) - 1, 3)) == (
        "a negative fraction of a 101-digit over a 1-digit integer"
    )
    assert _echo_number(F(-3, 10**100 + 1)) == (
        "a negative fraction of a 1-digit over a 101-digit integer"
    )


HUGE = F(10**5000)  # str() of it raises past Python's 4300-digit conversion limit
BIG = 10**5000  # the same number as an int, as a degree or dimension
LONG = F(10**100 + 1, 10**100)  # written out, it made a 235-character message
PLAIN = WeightedSpectrum(Unit.PLAIN, 1, ())


def _torus(alpha=1, beta=2) -> TorusOperator:
    return TorusOperator(standard_lattice(2), 1, alpha, beta)


@pytest.mark.parametrize(
    "make, error, start",
    [
        (lambda: _torus(-HUGE), NonpositiveScalar, "alpha and beta must be positive"),
        (lambda: _torus(1, -LONG), NonpositiveScalar, "alpha and beta must be positive"),
        (lambda: eigenvalue_multiplicity(_torus(), HUGE / (HUGE - 1), Branch.ALPHA),
         UnrepresentedNorm, "no dual vector has squared norm"),
        (lambda: eigenvalue_multiplicity(_torus(), LONG, Branch.BETA),
         UnrepresentedNorm, "no dual vector has squared norm"),
        (lambda: SphereOperator(3, 1, 1, 1, -HUGE), NonpositiveScalar,
         "alpha, beta, r_squared must be positive"),
        (lambda: reconstruct_base(PLAIN, 1, -HUGE, 1, 1), NonpositiveScalar,
         "alpha and beta must be positive"),
        (lambda: recover_sphere_params(PLAIN, 3, 1, -LONG), NonpositiveScalar,
         "r_squared must be positive"),
        (lambda: recover_radius(-HUGE, 1, 3, 1, 1), NonpositiveScalar,
         "alpha and beta must be positive"),
        (lambda: recover_radius(1, 1, 3, 1, -HUGE), NonpositiveMin,
         "minimal eigenvalue must be positive"),
        (lambda: WeightedSpectrum(Unit.PLAIN, 1, ((-HUGE, 1),)), ValueError,
         "negative eigenvalue key"),
        (lambda: WeightedSpectrum(Unit.PLAIN, 1, ((HUGE, 1),)), ValueError, "key a 5001-digit"),
        (lambda: WeightedSpectrum(Unit.PLAIN, LONG, ((2, 1),)), ValueError, "key 2 exceeds"),
        (lambda: PLAIN.scale(-HUGE), NonpositiveScalar, "scale factor must be positive"),
        (lambda: PLAIN.truncate(LONG), CutoffExceeded, "truncation bound"),
        (lambda: first_divergence(WeightedSpectrum(Unit.PLAIN, BIG, ()), PLAIN, 2),
         CutoffExceeded, "comparison bound 2 exceeds a cutoff"),
        (lambda: eigenvalue_multiplicity(_torus(), 1, BIG), TypeError, "branch must be a Branch"),
        (lambda: TorusOperator(standard_lattice(2), BIG, 1, 1), DegreeOutOfRange,
         "torus operator: degree p must lie in 0..n"),
        (lambda: SphereOperator(-BIG, 1, 1, 1), ValueError, "sphere dimension must be at least 1"),
        (lambda: recover_radius(1, 1, BIG, BIG, 1), DegreeOutOfRange,
         "radius recovery: degree p must lie in 1..n-1"),
        (lambda: dim_V(3, BIG, 1), DegreeOutOfRange, "dim_V: degree p must lie in 1..n-1"),
    ],
    ids=["torus-alpha", "torus-beta", "torus-norm-huge", "torus-norm-long", "sphere-operator",
         "reconstruct-base", "recover-sphere", "recover-radius-alpha", "recover-radius-min",
         "negative-key", "key-over-cutoff", "long-cutoff", "scale", "truncate",
         "first-divergence", "torus-branch", "torus-degree", "sphere-dimension",
         "recover-radius-degree", "dim-V-degree"],
)
def test_long_numbers_in_messages_are_named_by_their_digits(make, error, start):
    with pytest.raises(error) as raised:
        make()
    message = str(raised.value)
    assert type(raised.value) is error
    assert message.startswith(start) and "-digit" in message
    assert len(message) < 200


def test_long_values_in_messages_are_cut():
    with pytest.raises(TypeError) as raised:
        eigenvalue_multiplicity(_torus(), 1, "x" * 500)
    assert str(raised.value) == "branch must be a Branch, got '" + "x" * 79 + "..."
    assert _echo([BIG]) == "a list too long to write"


def test_numbers_of_up_to_80_digits_are_written_out():
    with pytest.raises(NonpositiveScalar) as raised:
        _torus(F(-1, 2))
    assert str(raised.value) == "alpha and beta must be positive, got -1/2, 2"
    norm = F(10**80 - 1, 10**79)
    with pytest.raises(UnrepresentedNorm) as raised:
        eigenvalue_multiplicity(_torus(), norm, Branch.ALPHA)
    assert str(raised.value) == f"no dual vector has squared norm {norm}"
    with pytest.raises(CutoffExceeded) as raised:
        PLAIN.truncate(3)
    assert str(raised.value) == "truncation bound 3 exceeds cutoff 1"


Z2 = standard_lattice(2)
SPHERE = SphereOperator(3, 1, 1, 2)
TORUS_BASE = laplace0_spectrum(Z2, 2)

# Every public entry point that reads a number, fed one value in its place.
ENTRY_POINTS = {
    "TorusOperator-p": lambda bad: TorusOperator(Z2, bad, 1, 1),
    "TorusOperator-alpha": lambda bad: TorusOperator(Z2, 1, bad, 1),
    "TorusOperator-beta": lambda bad: TorusOperator(Z2, 1, 1, bad),
    "eigenvalue_multiplicity": lambda bad: eigenvalue_multiplicity(_torus(), bad, Branch.ALPHA),
    "laplace0_spectrum": lambda bad: laplace0_spectrum(Z2, bad),
    "f_spectrum": lambda bad: f_spectrum(_torus(), bad),
    "f_spectrum_parts": lambda bad: f_spectrum_parts(_torus(), bad),
    "SphereOperator-n": lambda bad: SphereOperator(bad, 1, 1, 1),
    "SphereOperator-p": lambda bad: SphereOperator(3, bad, 1, 1),
    "SphereOperator-r_squared": lambda bad: SphereOperator(3, 1, 1, 1, bad),
    "dim_V": lambda bad: dim_V(3, bad, 1),
    "dim_W": lambda bad: dim_W(bad, 1, 1),
    "dim_V-k": lambda bad: dim_V(3, 1, bad),
    "dim_W-k": lambda bad: dim_W(3, 1, bad),
    "lambda_k": lambda bad: lambda_k(SPHERE, bad),
    "mu_k": lambda bad: mu_k(SPHERE, bad),
    "harmonic_polynomial_dim-nvars": lambda bad: harmonic_polynomial_dim(bad, 1),
    "harmonic_polynomial_dim-degree": lambda bad: harmonic_polynomial_dim(3, bad),
    "spectrum": lambda bad: spectrum(SPHERE, bad),
    "spectrum_parts": lambda bad: spectrum_parts(SPHERE, bad),
    "eigenvalue_details": lambda bad: eigenvalue_details(SPHERE, bad),
    "coincidences": lambda bad: coincidences(SPHERE, bad),
    "first_divergence": lambda bad: first_divergence(PLAIN, PLAIN, bad),
    "reconstruct_base": lambda bad: reconstruct_base(PLAIN, bad, 1, 1, 1),
    "reconstruct_base-copies_alpha": lambda bad: reconstruct_base(PLAIN, 1, 2, bad, 1),
    "reconstruct_base-copies_beta": lambda bad: reconstruct_base(PLAIN, 1, 2, 1, bad),
    "recover_torus_params": lambda bad: recover_torus_params(TORUS_BASE, TORUS_BASE, 2, bad),
    "recover_sphere_params-p": lambda bad: recover_sphere_params(PLAIN, 3, bad, 1),
    "recover_sphere_params-r_squared": lambda bad: recover_sphere_params(PLAIN, 3, 1, bad),
    "recover_radius-n": lambda bad: recover_radius(1, 1, bad, 1, 1),
    "recover_radius-beta": lambda bad: recover_radius(1, bad, 3, 1, 1),
    "recover_radius-min": lambda bad: recover_radius(1, 1, 3, 1, bad),
    "standard_lattice": lambda bad: standard_lattice(bad),
    "Lattice": lambda bad: Lattice(((1, 0), (bad, 1))),
    "Lattice.scaled": lambda bad: Z2.scaled(bad),
    "enumerate_norms": lambda bad: enumerate_norms(dual(Z2), bad),
    "count_norm": lambda bad: count_norm(dual(Z2), bad),
    "WeightedSpectrum-cutoff": lambda bad: WeightedSpectrum(Unit.PLAIN, bad, ()),
    "from_pairs": lambda bad: WeightedSpectrum.from_pairs(Unit.PLAIN, 1, [(bad, 1)]),
    "multiplicity": lambda bad: PLAIN.multiplicity(bad),
    "scale": lambda bad: PLAIN.scale(bad),
    "truncate": lambda bad: PLAIN.truncate(bad),
    "repeated_union-left_count": lambda bad: repeated_union(PLAIN, bad, PLAIN, 1),
    "repeated_union-right_count": lambda bad: repeated_union(PLAIN, 1, PLAIN, bad),
}


@pytest.mark.parametrize("bad", [0.5, True, "1/2", None], ids=["float", "bool", "str", "None"])
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_numbers_are_taken_only_as_int_or_fraction(call, bad):
    with pytest.raises(TypeError) as raised:
        call(bad)
    message = str(raised.value)
    assert repr(bad) in message and len(message) < 200


def test_format_is_lowest_terms():
    assert format_rational(F(6, 8)) == "3/4"
    assert format_rational(F(8, 4)) == "2"
    assert format_rational(F(0)) == "0"
    assert format_rational(F(-1, 3)) == "-1/3"


def test_sqrt_floor_known_values():
    assert sqrt_floor(F(0)) == 0
    assert sqrt_floor(F(15)) == 3
    assert sqrt_floor(F(16)) == 4
    assert sqrt_floor(F(1, 4)) == 0
    assert sqrt_floor(F(9, 4)) == 1
    assert sqrt_floor(F(25, 4)) == 2
    with pytest.raises(ValueError):
        sqrt_floor(F(-1))


def test_sqrt_bounds_bracket_the_root():
    rng = random.Random(41)
    for _ in range(300):
        value = F(rng.randrange(0, 5000), rng.randrange(1, 60))
        lo = sqrt_floor(value)
        assert lo * lo <= value < (lo + 1) * (lo + 1)


def test_ldlt_reconstructs_and_certifies():
    g = ((F(2), F(1)), (F(1), F(2)))
    lower, diag = ldlt(g)
    n = 2
    rebuilt = tuple(
        tuple(sum(lower[i][k] * diag[k] * lower[j][k] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    assert rebuilt == g
    assert all(d > 0 for d in diag)
    with pytest.raises(ValueError):
        ldlt(((F(0), F(0)), (F(0), F(1))))
    with pytest.raises(ValueError):
        ldlt(((F(1), F(2)), (F(2), F(1))))  # indefinite


def test_rank_examples():
    assert rank(()) == 0
    assert rank(({},)) == 0
    assert rank(({0: F(0), 1: F(0)},)) == 0  # explicit zeros are dropped
    assert rank(({0: F(1), 1: F(2)}, {0: F(2), 1: F(4)})) == 1
    assert rank(({0: F(1)}, {1: F(1)}, {0: F(1), 1: F(1)})) == 2
    assert rank(({0: F(1, 2), 1: F(1, 3)}, {0: F(1, 5), 1: F(1, 7)})) == 2
    assert rank(({7: F(3)}, {2: F(1), 7: F(1)}, {2: F(-3, 2), 7: F(1)})) == 2


def test_rank_invariant_under_row_scaling():
    rng = random.Random(29)
    for _ in range(25):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = [
            {j: F(rng.randrange(-3, 4), rng.choice((1, 2))) for j in rng.sample(range(9), ncols)}
            for _ in range(nrows)
        ]
        scaled = [{j: x * F(3, 7) for j, x in row.items()} for row in m]
        assert rank(m) == rank(scaled)


def test_gram():
    vectors = ((F(1), F(0)), (F(1), F(2)))
    assert linalg.gram(vectors) == ((F(1), F(1)), (F(1), F(5)))
