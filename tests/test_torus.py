"""Flat torus spectra: scalar base, form-level decomposition, multiplicities."""

import random
from fractions import Fraction as F
from math import comb

import pytest

from hodgespec.errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    NonpositiveScalar,
    UnrepresentedNorm,
)
from hodgespec.lattice import (
    BUDGET_ENV_VAR,
    Lattice,
    brute_force_enumerate,
    dual,
    enumerate_norms,
    standard_lattice,
)
from hodgespec.multiset import Unit, WeightedSpectrum, repeated_union
from hodgespec.torus import (
    Branch,
    TorusOperator,
    eigenvalue_multiplicity,
    f_spectrum,
    f_spectrum_parts,
    laplace0_spectrum,
)


def random_lattice(rng: random.Random, n: int) -> Lattice:
    rows = []
    for i in range(n):
        row = [F(0)] * n
        row[i] = F(rng.randrange(1, 3))
        for j in range(i + 1, n):
            row[j] = F(rng.randrange(-1, 2), 2)
        rows.append(tuple(row))
    return Lattice(tuple(rows))


def spec(pairs, cutoff) -> WeightedSpectrum:
    return WeightedSpectrum.from_pairs(Unit.FOUR_PI_SQUARED, F(cutoff), pairs)


def test_laplace0_square_torus():
    got = laplace0_spectrum(standard_lattice(2), 2)
    assert got == spec([(0, 1), (1, 4), (2, 4)], 2)


def test_laplace0_circle_keys_scale_with_radius():
    got = laplace0_spectrum(Lattice(((F(2),),)), 1)
    assert got == spec([(F(0), 1), (F(1, 4), 2), (F(1), 2)], 1)


def test_laplace0_scaling_law():
    lattice = standard_lattice(2)
    doubled = laplace0_spectrum(lattice.scaled(2), 1)
    rescaled = laplace0_spectrum(lattice, 4).scale(F(1, 4))
    assert doubled == rescaled


def test_f_spectrum_square_torus_example():
    op = TorusOperator(standard_lattice(2), 1, F(1), F(2))
    assert f_spectrum(op, 2) == spec([(0, 2), (1, 4), (2, 8)], 2)


def test_f_spectrum_parts_never_merge():
    op = TorusOperator(standard_lattice(2), 1, F(1), F(2))
    alpha_part, beta_part = f_spectrum_parts(op, 2)
    assert alpha_part == spec([(0, 1), (1, 4), (2, 4)], 2)
    assert beta_part == spec([(0, 1), (2, 4)], 2)
    assert alpha_part.union(beta_part) == f_spectrum(op, 2)


def test_zero_multiplicity_counts_parallel_forms():
    rng = random.Random(31)
    for _ in range(8):
        n = rng.randrange(1, 5)
        lattice = random_lattice(rng, n)
        for p in range(n + 1):
            op = TorusOperator(lattice, p, F(3, 2), F(2))
            got = f_spectrum(op, F(1, 2))
            assert got.multiplicity(0) == comb(n, p)


def test_boundary_degrees_follow_scalar_spectrum():
    lattice = standard_lattice(2)
    alpha, beta = F(3), F(2)
    top = TorusOperator(lattice, 2, alpha, beta)
    assert f_spectrum(top, 6) == laplace0_spectrum(lattice, F(6) / alpha).scale(alpha)
    assert not top.duality_extension
    bottom = TorusOperator(lattice, 0, alpha, beta)
    assert f_spectrum(bottom, 6) == laplace0_spectrum(lattice, F(6) / beta).scale(beta)
    assert bottom.duality_extension
    alpha_part, beta_part = f_spectrum_parts(bottom, 6)
    assert alpha_part.is_empty()
    assert not beta_part.is_empty()


def test_equal_parameters_collapse_to_scalar_copies():
    rng = random.Random(32)
    for _ in range(6):
        n = rng.randrange(2, 4)
        lattice = random_lattice(rng, n)
        alpha = F(rng.randrange(1, 4), rng.randrange(1, 3))
        cutoff = F(3)
        for p in range(n + 1):
            op = TorusOperator(lattice, p, alpha, alpha)
            base = laplace0_spectrum(lattice, cutoff / alpha).scale(alpha)
            expected = repeated_union(
                base, comb(n, p), WeightedSpectrum(Unit.FOUR_PI_SQUARED, cutoff, ()), 0
            )
            assert f_spectrum(op, cutoff) == expected


def test_hodge_duality_swaps_parameters():
    rng = random.Random(33)
    for _ in range(6):
        n = rng.randrange(2, 4)
        lattice = random_lattice(rng, n)
        alpha = F(rng.randrange(1, 4))
        beta = F(rng.randrange(1, 4), 2)
        p = rng.randrange(0, n + 1)
        left = TorusOperator(lattice, p, alpha, beta)
        right = TorusOperator(lattice, n - p, beta, alpha)
        assert f_spectrum(left, 4) == f_spectrum(right, 4)
        la, lb = f_spectrum_parts(left, 4)
        ra, rb = f_spectrum_parts(right, 4)
        assert la == rb and lb == ra


def test_parameter_and_lattice_scaling_cancel():
    rng = random.Random(34)
    for factor in (F(2), F(1, 3)):
        lattice = random_lattice(rng, 2)
        op = TorusOperator(lattice, 1, F(1), F(3, 2))
        scaled = TorusOperator(
            lattice.scaled(factor), 1, factor * factor * op.alpha, factor * factor * op.beta
        )
        assert f_spectrum(op, 4) == f_spectrum(scaled, 4)


def test_multiplicity_includes_both_families():
    op = TorusOperator(standard_lattice(3), 1, F(1), F(1))
    assert eigenvalue_multiplicity(op, 1, Branch.ALPHA) == 18
    op2 = TorusOperator(standard_lattice(2), 1, F(1), F(2))
    assert eigenvalue_multiplicity(op2, 2, Branch.ALPHA) == 8
    assert eigenvalue_multiplicity(op2, 1, Branch.BETA) == 4 + 4


def test_multiplicity_generic_drops_cross_terms():
    op = TorusOperator(standard_lattice(2), 1, F(1), F(2), generic=True)
    assert eigenvalue_multiplicity(op, 1, Branch.ALPHA) == 4
    assert eigenvalue_multiplicity(op, 1, Branch.BETA) == 4


def test_multiplicity_matches_merged_spectrum():
    rng = random.Random(35)
    for _ in range(5):
        n = rng.randrange(2, 4)
        lattice = random_lattice(rng, n)
        p = rng.randrange(1, n)
        op = TorusOperator(lattice, p, F(rng.randrange(1, 3)), F(rng.randrange(1, 3), 2))
        cutoff = F(4)
        merged = f_spectrum(op, cutoff)
        table = enumerate_norms(dual(lattice), cutoff / min(op.alpha, op.beta))
        for norm, _ in table.entries:
            if norm <= 0:
                continue
            if op.alpha * norm <= cutoff:
                got = eigenvalue_multiplicity(op, norm, Branch.ALPHA)
                assert got == merged.multiplicity(op.alpha * norm)
            if op.beta * norm <= cutoff:
                got = eigenvalue_multiplicity(op, norm, Branch.BETA)
                assert got == merged.multiplicity(op.beta * norm)


def test_multiplicity_rejects_bad_norms():
    op = TorusOperator(standard_lattice(2), 1, F(1), F(2))
    with pytest.raises(UnrepresentedNorm):
        eigenvalue_multiplicity(op, 3, Branch.ALPHA)
    with pytest.raises(ValueError):
        eigenvalue_multiplicity(op, 0, Branch.ALPHA)
    with pytest.raises(ValueError):
        eigenvalue_multiplicity(op, -1, Branch.BETA)
    with pytest.raises(TypeError):
        eigenvalue_multiplicity(op, 1, "alpha")


def test_generic_mode_has_no_merged_spectrum():
    op = TorusOperator(standard_lattice(2), 1, F(1), F(2), generic=True)
    with pytest.raises(ValueError):
        f_spectrum(op, 2)
    alpha_part, beta_part = f_spectrum_parts(op, 2)
    assert alpha_part == spec([(0, 1), (1, 4), (2, 4)], 2)
    assert beta_part == spec([(0, 1), (2, 4)], 2)


def test_operator_validation():
    lattice = standard_lattice(2)
    with pytest.raises(DegreeOutOfRange):
        TorusOperator(lattice, 3, F(1), F(1))
    with pytest.raises(DegreeOutOfRange):
        TorusOperator(lattice, -1, F(1), F(1))
    with pytest.raises(NonpositiveScalar):
        TorusOperator(lattice, 1, F(0), F(1))
    with pytest.raises(NonpositiveScalar):
        TorusOperator(lattice, 1, F(1), F(-2))
    with pytest.raises(ValueError):
        f_spectrum(TorusOperator(lattice, 1, F(1), F(1)), -1)



@pytest.mark.parametrize("build", [f_spectrum, f_spectrum_parts])
def test_negative_cutoff_is_refused_before_any_dual_work(build, monkeypatch):
    op = TorusOperator(standard_lattice(2), 1, F(1), F(2))
    # dual() charges 2^3 = 8, so reaching it would raise BudgetExceeded
    monkeypatch.setenv(BUDGET_ENV_VAR, "1")
    with pytest.raises(BudgetExceeded):
        build(op, 1)
    for cutoff in (-1, F(-1, 2)):
        with pytest.raises(ValueError) as raised:
            build(op, cutoff)
        assert type(raised.value) is ValueError
        assert str(raised.value) == "cutoff must be nonnegative"


def test_scalar_spectrum_and_enumerations_share_the_cutoff_rule(monkeypatch):
    lattice = standard_lattice(2)  # owns no dual data yet, so dual() would charge
    data = dual(standard_lattice(2))
    # dual() charges 2^3 = 8, so laplace0_spectrum reaching it would raise BudgetExceeded
    monkeypatch.setenv(BUDGET_ENV_VAR, "1")
    with pytest.raises(BudgetExceeded):
        laplace0_spectrum(lattice, 1)
    for refuse in (
        lambda: enumerate_norms(data, -1),
        lambda: brute_force_enumerate(data, -1),
        lambda: laplace0_spectrum(lattice, -1),
    ):
        with pytest.raises(ValueError) as raised:
            refuse()
        assert type(raised.value) is ValueError
        assert str(raised.value) == "cutoff must be nonnegative"


def test_budget_propagates_to_enumeration(monkeypatch):
    # 8 = 2^3 lets dual() through, so the walk is what refuses
    monkeypatch.setenv(BUDGET_ENV_VAR, "8")
    with pytest.raises(BudgetExceeded, match="candidate visits"):
        laplace0_spectrum(standard_lattice(2), 100)
    op = TorusOperator(standard_lattice(2), 1, F(1), F(2))
    with pytest.raises(BudgetExceeded, match="candidate visits"):
        f_spectrum(op, 100)


def test_wide_torus_keys_are_charged_before_any_key(monkeypatch):
    # Z^1, p = 0, alpha = beta = 10^4000 up to 10^4000 100^2: the walk visits 201
    # vectors, and the one part's 101 keys of up to 13302 bits are charged
    # 101 x (13302 >> 10) = 1212, so a budget between the two is the key charge's.
    op = TorusOperator(standard_lattice(1), 0, F(10**4000), F(10**4000))
    cutoff = 10**4000 * 100**2
    monkeypatch.setenv(BUDGET_ENV_VAR, "1211")
    with pytest.raises(BudgetExceeded) as raised:
        f_spectrum(op, cutoff)
    assert str(raised.value) == "torus keys need 1212 work, budget is 1211"
    monkeypatch.setenv(BUDGET_ENV_VAR, "1212")
    assert f_spectrum(op, cutoff).entries == tuple((10**4000 * k * k, 2 if k else 1)
                                                   for k in range(101))
    monkeypatch.setenv(BUDGET_ENV_VAR, "200")
    with pytest.raises(BudgetExceeded, match="candidate visits"):
        f_spectrum(op, cutoff)
    # Z^2, p = 1 has both parts: 44 norms up to 100, each part charged 44 x 12
    op = TorusOperator(standard_lattice(2), 1, F(10**4000), F(10**4000))
    monkeypatch.setenv(BUDGET_ENV_VAR, "1055")
    with pytest.raises(BudgetExceeded) as raised:
        f_spectrum(op, 10**4000 * 100)
    assert str(raised.value) == "torus keys need 1056 work, budget is 1055"
    monkeypatch.setenv(BUDGET_ENV_VAR, "1056")
    assert len(f_spectrum(op, 10**4000 * 100)) == 44


def test_walk_stops_at_the_parts_with_copies(monkeypatch):
    # p = n has no beta part and p = 0 no alpha part, so the tiny weight on
    # the missing side must not stretch the walk to cutoff / (1/100).
    monkeypatch.setenv(BUDGET_ENV_VAR, "20000")
    z3 = standard_lattice(3)
    want = f_spectrum(TorusOperator(z3, 3, F(1), F(1)), 20)
    assert len(want) == 19
    assert f_spectrum(TorusOperator(z3, 3, F(1), F(1, 100)), 20) == want
    assert f_spectrum(TorusOperator(z3, 0, F(1, 100), F(1)), 20) == want
    parts = f_spectrum_parts(TorusOperator(z3, 3, F(1), F(1, 100)), 20)
    assert parts == (want, spec([], 20))


def test_multiplicity_skips_the_cross_norm_without_copies(monkeypatch):
    # The beta family has no copies at p = n, so the walk ends at norm 1, not at
    # the cross norm 1 / (1/100) = 100.
    monkeypatch.setenv(BUDGET_ENV_VAR, "2000")
    op = TorusOperator(standard_lattice(3), 3, F(1), F(1, 100))
    assert eigenvalue_multiplicity(op, 1, Branch.ALPHA) == 6
    op0 = TorusOperator(standard_lattice(3), 0, F(1, 100), F(1))
    assert eigenvalue_multiplicity(op0, 1, Branch.BETA) == 6
