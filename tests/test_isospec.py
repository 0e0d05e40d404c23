"""Isospectrality checks and the constructive recovery algorithms."""

import random
from fractions import Fraction as F

import pytest

from hodgespec.errors import (
    BranchAmbiguous,
    CutoffExceeded,
    CutoffTooSmall,
    DegreeOutOfRange,
    EmptyInput,
    NonpositiveMin,
    NonpositiveScalar,
    NotInImage,
    UnitMismatch,
)
from hodgespec.isospec import (
    BRANCH_ALPHA_FIRST,
    BRANCH_BETA_FIRST,
    BRANCH_COINCIDENT,
    BRANCH_UNORDERED,
    first_divergence,
    is_isospectral_upto,
    reconstruct_base,
    recover_radius,
    recover_sphere_params,
    recover_torus_params,
)
from hodgespec.lattice import Lattice, standard_lattice
from hodgespec.multiset import Unit, WeightedSpectrum, repeated_union
from hodgespec.sphere import SphereOperator, dim_V, dim_W, lambda_k, mu_k, spectrum
from hodgespec.torus import TorusOperator, f_spectrum, laplace0_spectrum


def wspec(pairs, cutoff, unit=Unit.FOUR_PI_SQUARED) -> WeightedSpectrum:
    return WeightedSpectrum.from_pairs(unit, F(cutoff), pairs)


def test_rotated_lattice_is_isospectral():
    rotated = Lattice(((F(3, 5), F(4, 5)), (F(-4, 5), F(3, 5))))
    left = laplace0_spectrum(standard_lattice(2), 10)
    right = laplace0_spectrum(rotated, 10)
    assert is_isospectral_upto(left, right, 10)
    assert first_divergence(left, right, 10) is None


def test_dual_degree_operators_are_isospectral():
    lattice = standard_lattice(3)
    left = f_spectrum(TorusOperator(lattice, 1, F(2), F(5)), 12)
    right = f_spectrum(TorusOperator(lattice, 2, F(5), F(2)), 12)
    assert is_isospectral_upto(left, right, 12)


def test_stretched_lattice_diverges_at_quarter():
    stretched = Lattice(((F(1), F(0)), (F(0), F(2))))
    left0 = laplace0_spectrum(standard_lattice(2), 2)
    right0 = laplace0_spectrum(stretched, 2)
    assert first_divergence(left0, right0, 2) == (F(1, 4), 0, 2)
    left = f_spectrum(TorusOperator(standard_lattice(2), 1, F(1), F(1)), 2)
    right = f_spectrum(TorusOperator(stretched, 1, F(1), F(1)), 2)
    assert not is_isospectral_upto(left, right, 2)
    assert first_divergence(left, right, 2) == (F(1, 4), 0, 4)


def test_divergence_guards():
    left = wspec([(0, 1)], 4)
    with pytest.raises(UnitMismatch):
        first_divergence(left, wspec([(0, 1)], 4, Unit.PLAIN), 2)
    with pytest.raises(CutoffExceeded):
        first_divergence(left, wspec([(0, 1)], 1), 2)
    with pytest.raises(CutoffExceeded):
        is_isospectral_upto(left, wspec([(0, 1)], 1), 2)


def test_isospectral_upto_bounds():
    w = wspec([(1, 1), (3, 2)], 5, Unit.PLAIN)
    assert is_isospectral_upto(w, w, 5)
    other = wspec([(1, 1), (3, 2), (4, 1)], 5, Unit.PLAIN)
    assert is_isospectral_upto(w, other, 3)
    assert not is_isospectral_upto(w, other, 5)
    with pytest.raises(CutoffExceeded):
        is_isospectral_upto(w, other, 6)
    with pytest.raises(UnitMismatch):
        is_isospectral_upto(w, wspec([(1, 1)], 5), 5)



def test_negative_comparison_bound_is_refused():
    a = spectrum(SphereOperator(3, 1, 1, 1), 10)
    b = spectrum(SphereOperator(3, 1, 2, 1), 10)
    assert first_divergence(a, b, 10) == (F(3), 4, 0)
    for compare in (is_isospectral_upto, first_divergence):
        for bound in (-1, F(-1, 3)):
            with pytest.raises(ValueError) as raised:
                compare(a, b, bound)
            assert str(raised.value) == "cutoff must be nonnegative"
        # the unit check comes first
        with pytest.raises(UnitMismatch):
            compare(a, wspec([(0, 1)], 4), -1)
    # a bound of 0 still compares: neither spectrum has a zero eigenvalue
    assert is_isospectral_upto(a, b, 0)
    assert first_divergence(a, b, 0) is None
    assert first_divergence(wspec([(0, 1)], 4), wspec([(0, 2)], 4), 0) == (F(0), 1, 2)

def test_reconstruct_base_two_scaled_copies():
    m = wspec([(0, 2), (1, 1), (2, 1), (4, 1), (8, 1)], 8)
    base = reconstruct_base(m, 1, 2, 1, 1)
    assert base == wspec([(0, 1), (1, 1), (4, 1)], 4)


def test_reconstruct_base_equal_parameters_divide_multiplicity():
    m = wspec([(0, 3), (3, 6)], 9)
    base = reconstruct_base(m, 3, 3, 2, 1)
    assert base == wspec([(0, 1), (1, 2)], 3)


def test_reconstruct_base_round_trip_random():
    rng = random.Random(51)
    for _ in range(15):
        keys = sorted(rng.sample(range(0, 12), rng.randrange(2, 5)))
        pairs = [(F(k), rng.randrange(1, 4)) for k in keys]
        c_cutoff = F(max(keys) + rng.randrange(0, 3))
        c = wspec(pairs, c_cutoff)
        alpha = F(rng.randrange(1, 5), rng.randrange(1, 3))
        beta = F(rng.randrange(1, 5), rng.randrange(1, 3))
        ca, cb = rng.randrange(1, 4), rng.randrange(1, 4)
        m = repeated_union(c.scale(alpha), ca, c.scale(beta), cb)
        back = reconstruct_base(m, alpha, beta, ca, cb)
        assert back.cutoff == m.cutoff / max(alpha, beta)
        expected = [(k, mult) for k, mult in c.entries if k <= back.cutoff]
        assert list(back.entries) == expected


def test_reconstruct_base_recovers_scalar_spectrum():
    lattice = standard_lattice(2)
    op = TorusOperator(lattice, 1, F(1), F(2))
    m = f_spectrum(op, 8)
    base = reconstruct_base(m, 1, 2, op.alpha_copies, op.beta_copies)
    assert base == laplace0_spectrum(lattice, 4)


def test_reconstruct_base_refusals():
    with pytest.raises(EmptyInput):
        reconstruct_base(wspec([], 4), 1, 2, 1, 1)
    with pytest.raises(ValueError):
        reconstruct_base(wspec([(0, 1)], 4), 1, 2, 0, 1)
    with pytest.raises(NonpositiveScalar):
        reconstruct_base(wspec([(0, 1)], 4), 0, 2, 1, 1)
    # element 1 needs two copies at key 2 but only one is present
    with pytest.raises(NotInImage):
        reconstruct_base(wspec([(1, 1), (2, 1)], 4), 1, 2, 1, 2)


def torus_inputs(lattice, p, alpha, beta):
    lam1 = F(1)  # first positive dual norm of the lattices used here
    high, low = max(alpha, beta), min(alpha, beta)
    m_cutoff = 2 * high * lam1
    base_cutoff = 2 * (high / low) * lam1
    op = TorusOperator(lattice, p, alpha, beta)
    return f_spectrum(op, m_cutoff), laplace0_spectrum(lattice, base_cutoff)


def test_recover_torus_alpha_first():
    m, base = torus_inputs(standard_lattice(3), 1, F(3), F(5))
    got = recover_torus_params(m, base, 3, 1)
    assert got.kind == "ordered"
    assert got.values == (F(3), F(5))
    assert got.branch_trace == (BRANCH_ALPHA_FIRST,)
    assert got.to_json_dict() == {
        "ordered": ["3", "5"],
        "branch_trace": [BRANCH_ALPHA_FIRST],
    }


def test_recover_torus_beta_first():
    m, base = torus_inputs(standard_lattice(3), 1, F(5), F(3))
    got = recover_torus_params(m, base, 3, 1)
    assert got.values == (F(5), F(3))
    assert got.branch_trace == (BRANCH_BETA_FIRST,)


def test_recover_torus_coincident():
    m, base = torus_inputs(standard_lattice(3), 2, F(2), F(2))
    got = recover_torus_params(m, base, 3, 2)
    assert got.values == (F(2), F(2))
    assert got.branch_trace == (BRANCH_COINCIDENT,)


def test_recover_torus_half_dimension_is_unordered():
    m, base = torus_inputs(standard_lattice(2), 1, F(1), F(2))
    got = recover_torus_params(m, base, 2, 1)
    assert got.kind == "unordered"
    assert got.values == (F(1), F(2))
    assert got.branch_trace == (BRANCH_UNORDERED,)
    m2, base2 = torus_inputs(standard_lattice(2), 1, F(3), F(3))
    got2 = recover_torus_params(m2, base2, 2, 1)
    assert got2.values == (F(3), F(3))


def test_recover_torus_random_round_trip():
    rng = random.Random(52)
    for _ in range(10):
        n = rng.randrange(2, 5)
        p = rng.randrange(1, n)
        alpha = F(rng.randrange(1, 6), rng.randrange(1, 3))
        beta = F(rng.randrange(1, 6), rng.randrange(1, 3))
        m, base = torus_inputs(standard_lattice(n), p, alpha, beta)
        got = recover_torus_params(m, base, n, p)
        if n == 2 * p:
            assert got.values == tuple(sorted((alpha, beta)))
        else:
            assert got.values == (alpha, beta)


def test_recover_torus_refusals():
    m, base = torus_inputs(standard_lattice(3), 1, F(1), F(2))
    with pytest.raises(DegreeOutOfRange):
        recover_torus_params(m, base, 3, 0)
    with pytest.raises(DegreeOutOfRange):
        recover_torus_params(m, base, 3, 3)
    with pytest.raises(UnitMismatch):
        recover_torus_params(m, base.with_unit(Unit.PLAIN), 3, 1)
    with pytest.raises(CutoffTooSmall):
        recover_torus_params(m, laplace0_spectrum(standard_lattice(3), F(1, 2)), 3, 1)
    tiny = f_spectrum(TorusOperator(standard_lattice(3), 1, F(1), F(2)), F(1, 2))
    with pytest.raises(CutoffTooSmall):
        recover_torus_params(tiny, base, 3, 1)


def test_recover_torus_truncation_hides_second_parameter():
    op = TorusOperator(standard_lattice(2), 1, F(1), F(100))
    m = f_spectrum(op, 2)
    base = laplace0_spectrum(standard_lattice(2), 2)
    with pytest.raises(CutoffTooSmall):
        recover_torus_params(m, base, 2, 1)


def test_recover_torus_tampered_multiplicity():
    m, base = torus_inputs(standard_lattice(3), 1, F(3), F(5))
    bumped = [(k, mult + 1 if k == 3 else mult) for k, mult in m.entries]
    with pytest.raises(BranchAmbiguous):
        recover_torus_params(wspec(bumped, m.cutoff), base, 3, 1)


def test_recover_torus_surplus_zero_multiplicity():
    # Z^3 has 3 parallel 1-forms; the 6 extra zeros lead with the alpha-first count
    m, base = torus_inputs(standard_lattice(3), 1, F(3), F(5))
    surplus = [(k, 9 if k == 0 else mult) for k, mult in m.entries]
    with pytest.raises(BranchAmbiguous):
        recover_torus_params(wspec(surplus, m.cutoff), base, 3, 1)


def sphere_cutoff(n, p, alpha, beta, r_squared):
    mu0 = alpha * p * (n - p + 1) / r_squared
    lam1 = beta * (p + 1) * (n - p) / r_squared
    return 3 * max(mu0, lam1)


def test_recover_sphere_alpha_first():
    op = SphereOperator(3, 1, F(1), F(1))
    m = spectrum(op, sphere_cutoff(3, 1, F(1), F(1), F(1)))
    got = recover_sphere_params(m, 3, 1, 1)
    assert got.values == (F(1), F(1))
    assert got.branch_trace == (BRANCH_ALPHA_FIRST,)


def test_recover_sphere_beta_first():
    op = SphereOperator(3, 1, F(4), F(1))
    m = spectrum(op, sphere_cutoff(3, 1, F(4), F(1), F(1)))
    got = recover_sphere_params(m, 3, 1, 1)
    assert got.values == (F(4), F(1))
    assert got.branch_trace == (BRANCH_BETA_FIRST,)


def test_recover_sphere_coincident_ratio():
    op = SphereOperator(3, 1, F(4), F(3))
    m = spectrum(op, sphere_cutoff(3, 1, F(4), F(3), F(1)))
    got = recover_sphere_params(m, 3, 1, 1)
    assert got.values == (F(4), F(3))
    assert got.branch_trace == (BRANCH_COINCIDENT,)


def test_recover_sphere_half_dimension_is_unordered():
    op = SphereOperator(2, 1, F(1), F(2))
    m = spectrum(op, sphere_cutoff(2, 1, F(1), F(2), F(1)))
    got = recover_sphere_params(m, 2, 1, 1)
    assert got.kind == "unordered"
    assert got.values == (F(1), F(2))
    assert got.branch_trace == (BRANCH_UNORDERED,)
    equal = SphereOperator(2, 1, F(3), F(3))
    m2 = spectrum(equal, sphere_cutoff(2, 1, F(3), F(3), F(1)))
    assert recover_sphere_params(m2, 2, 1, 1).values == (F(3), F(3))


@pytest.mark.parametrize("n", range(2, 9))
def test_shares_start_alike_exactly_at_half_dimension(n):
    # The rule that makes a recovery unordered: equal leading (key, count) of the two shares.
    for p in range(1, n):
        sphere = SphereOperator(n, p, 1, 1)
        torus = TorusOperator(standard_lattice(n), p, 1, 1)
        assert (dim_W(n, p, 0) == dim_V(n, p, 1)) == (n == 2 * p)
        assert (mu_k(sphere, 0) == lambda_k(sphere, 1)) == (n == 2 * p)
        assert (torus.alpha_copies == torus.beta_copies) == (n == 2 * p)


def test_half_dimension_refusal_names_all_three_cases():
    # n = 2p: the refusal lists both equal counts and their sum, as at any other degree
    sphere = wspec([(6, 30)], 12, Unit.PLAIN)
    with pytest.raises(
        BranchAmbiguous, match="^leading multiplicity 30 matches none of 10, 10, 20$"
    ):
        recover_sphere_params(sphere, 4, 2, 1)
    base = laplace0_spectrum(standard_lattice(2), 2)
    with pytest.raises(BranchAmbiguous, match="^leading multiplicity 3 matches none of 4, 4, 8$"):
        recover_torus_params(wspec([(0, 2), (1, 3)], 2), base, 2, 1)


def test_recover_sphere_random_round_trip():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randrange(2, 6)
        p = rng.randrange(1, n)
        alpha = F(rng.randrange(1, 6))
        beta = F(rng.randrange(1, 6))
        r_squared = F(rng.choice((1, 4, F(9, 4))))
        op = SphereOperator(n, p, alpha, beta, r_squared)
        m = spectrum(op, sphere_cutoff(n, p, alpha, beta, r_squared))
        got = recover_sphere_params(m, n, p, r_squared)
        if n == 2 * p:
            assert got.values == tuple(sorted((alpha, beta)))
        else:
            assert got.values == (alpha, beta)


def test_recover_sphere_refusals():
    m = spectrum(SphereOperator(3, 1, F(1), F(1)), 12)
    with pytest.raises(DegreeOutOfRange):
        recover_sphere_params(m, 3, 0, 1)
    with pytest.raises(NonpositiveScalar):
        recover_sphere_params(m, 3, 1, 0)
    with pytest.raises(CutoffTooSmall):
        recover_sphere_params(spectrum(SphereOperator(3, 1, F(1), F(1)), 2), 3, 1, 1)
    with pytest.raises(BranchAmbiguous):
        recover_sphere_params(wspec([(0, 1), (3, 4)], 12, Unit.PLAIN), 3, 1, 1)
    with pytest.raises(BranchAmbiguous):
        recover_sphere_params(wspec([(3, 5), (4, 6)], 12, Unit.PLAIN), 3, 1, 1)


def test_recover_sphere_truncation_hides_second_parameter():
    op = SphereOperator(3, 1, F(1), F(100))
    m = spectrum(op, 10)
    with pytest.raises(CutoffTooSmall):
        recover_sphere_params(m, 3, 1, 1)


@pytest.mark.parametrize(
    "n, alpha, beta, branch",
    [
        (3, 1, 1, BRANCH_ALPHA_FIRST),
        (3, 4, 1, BRANCH_BETA_FIRST),
        (3, 4, 3, BRANCH_COINCIDENT),  # never subtracts, so difference() cannot refuse
        (2, 1, 2, BRANCH_UNORDERED),
    ],
)
def test_recover_sphere_refuses_torus_units(n, alpha, beta, branch):
    op = SphereOperator(n, 1, F(alpha), F(beta))
    plain = spectrum(op, sphere_cutoff(n, 1, F(alpha), F(beta), F(1)))
    assert recover_sphere_params(plain, n, 1, 1).branch_trace == (branch,)
    relabelled = WeightedSpectrum(Unit.FOUR_PI_SQUARED, plain.cutoff, plain.entries)
    with pytest.raises(UnitMismatch):
        recover_sphere_params(relabelled, n, 1, 1)


def test_recover_radius_example():
    assert recover_radius(1, 1, 3, 1, F(3, 4)) == 4


def test_recover_radius_round_trip():
    rng = random.Random(54)
    for _ in range(10):
        n = rng.randrange(2, 6)
        p = rng.randrange(1, n)
        alpha = F(rng.randrange(1, 5))
        beta = F(rng.randrange(1, 5))
        r_squared = F(rng.randrange(1, 5), rng.randrange(1, 3))
        op = SphereOperator(n, p, alpha, beta, r_squared)
        m = spectrum(op, sphere_cutoff(n, p, alpha, beta, r_squared))
        assert recover_radius(alpha, beta, n, p, m.min_entry()[0]) == r_squared


def test_recover_radius_threshold_agreement():
    # alpha*p(n-p+1) == beta*(p+1)(n-p): both series start together
    assert recover_radius(4, 3, 3, 1, 12) == 1
    assert recover_radius(4, 3, 3, 1, 3) == 4


def test_recover_radius_refusals():
    with pytest.raises(DegreeOutOfRange):
        recover_radius(1, 1, 3, 3, 1)
    with pytest.raises(NonpositiveScalar):
        recover_radius(0, 1, 3, 1, 1)
    with pytest.raises(NonpositiveMin):
        recover_radius(1, 1, 3, 1, 0)
    with pytest.raises(NonpositiveMin):
        recover_radius(1, 1, 3, 1, -3)


def test_scaling_transfer_matches_lattice_rescale():
    lattice = standard_lattice(2)
    op = TorusOperator(lattice, 1, F(1), F(3))
    # scaling the metric by c scales (alpha, beta) by c^2
    moved_alpha, moved_beta = 2 * 2 * op.alpha, 2 * 2 * op.beta
    moved = TorusOperator(lattice.scaled(2), 1, moved_alpha, moved_beta)
    assert f_spectrum(op, 8) == f_spectrum(moved, 8)
