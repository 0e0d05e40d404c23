"""Round sphere spectra: series values, eigenspace dimensions, oracle recount."""

import json
import random
from fractions import Fraction as F
from math import comb

import pytest

from hodgespec.cli import main
from hodgespec.errors import BudgetExceeded, DegreeOutOfRange, NonpositiveScalar
from hodgespec.lattice import BUDGET_ENV_VAR
from hodgespec.multiset import Unit, WeightedSpectrum
from hodgespec.sphere import (
    Series,
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
from hodgespec import sphere
from hodgespec.sphere import _series, _SeriesFormula

from oracles import ORACLE_MAX_AMBIENT_DIM, ORACLE_MAX_POLY_DEGREE, harmonic_form_dims_oracle


def spec(pairs, cutoff) -> WeightedSpectrum:
    return WeightedSpectrum.from_pairs(Unit.PLAIN, F(cutoff), pairs)


def test_series_values():
    op = SphereOperator(2, 1, F(1), F(1))
    assert lambda_k(op, 1) == 2
    assert mu_k(op, 0) == 2
    wide = SphereOperator(2, 1, F(1), F(1), r_squared=F(4))
    assert lambda_k(wide, 1) == F(1, 2)
    op3 = SphereOperator(3, 1, F(1), F(1))
    assert mu_k(op3, 0) == 3
    assert lambda_k(op3, 1) == 4
    with pytest.raises(ValueError):
        lambda_k(op, 0)
    with pytest.raises(ValueError):
        mu_k(op, -1)


def test_eigenspace_dimensions():
    assert dim_V(3, 1, 1) == 6
    assert dim_W(3, 1, 0) == 4
    assert dim_V(2, 1, 0) == 0
    for k in range(1, 6):
        assert dim_V(2, 1, k) == 2 * k + 1
    for k in range(6):
        assert dim_W(2, 1, k) == 2 * k + 3
    for n in range(2, 7):
        for p in range(1, n):
            assert dim_V(n, p, 1) == comb(n + 1, p + 1)
            assert dim_W(n, p, 0) == comb(n + 1, p)
    with pytest.raises(DegreeOutOfRange):
        dim_V(3, 0, 1)
    with pytest.raises(DegreeOutOfRange):
        dim_W(3, 3, 1)
    with pytest.raises(ValueError):
        dim_V(3, 1, -1)



def test_dim_W_refuses_a_negative_k():
    with pytest.raises(ValueError, match="^k must be nonnegative$"):
        dim_W(2, 1, -1)


def test_a_non_integral_dimension_step_is_caught(monkeypatch):
    # Binomials one too large break the lambda dimension at k = 1 (q = 1, j = 0):
    # (C(3, 1) + 1) * 1 * (C(3, 3) + 1) * (0 + 3 + 1) / ((0 + 1)(0 + 3)) = 32/3
    monkeypatch.setattr(sphere, "comb", lambda top, bottom: comb(top, bottom) + 1)
    broken = _series(Series.LAMBDA, 3, 2, 1, 1)
    message = "^lambda dimension at n=3, k=1 came out non-integral: 32/3$"
    with pytest.raises(AssertionError, match=message):
        broken.dim(1)
    with pytest.raises(AssertionError, match=message):
        list(broken.terms(broken.value(1), 1))


def test_a_non_integral_binomial_step_is_caught(monkeypatch):
    # C(6, 4) read as 14 leaves the mu dimension at k = 2 (q = 1, j = 2) whole:
    # C(4, 1) * 1 * 14 * (2*2 + 4 + 1) / ((2 + 1)(2 + 4)) = 28, but the step
    # to C(7, 4) is 14 * 4 * 7 / 3 = 392/3, caught at k = 3 before its dimension
    monkeypatch.setattr(sphere, "comb", lambda top, bottom: 14 if (top, bottom) == (6, 4)
                        else comb(top, bottom))
    mu = _series(Series.MU, 4, 1, 1, 1)
    f = _SeriesFormula(mu.series, 2, mu.shift, mu.scale, mu.n, mu.q)
    message = "^mu dimension at n=4, k=3 came out non-integral: 392/3$"
    with pytest.raises(AssertionError, match=message):
        list(f.terms(f.value(3), 1))
    assert f.dim(2) == 28


def test_harmonic_polynomial_dims():
    assert [harmonic_polynomial_dim(3, k) for k in range(4)] == [1, 3, 5, 7]
    assert harmonic_polynomial_dim(2, 0) == 1
    assert all(harmonic_polynomial_dim(2, k) == 2 for k in range(1, 5))
    with pytest.raises(ValueError):
        harmonic_polynomial_dim(0, 1)
    with pytest.raises(ValueError):
        harmonic_polynomial_dim(3, -1)


def test_round_sphere_first_eigenvalues():
    got = spectrum(SphereOperator(3, 1, F(1), F(1)), 4)
    assert got == spec([(3, 4), (4, 6)], 4)
    first = spectrum(SphereOperator(2, 1, F(1), F(1)), 2)
    assert first == spec([(2, 6)], 2)


def test_interior_spectrum_is_strictly_positive():
    rng = random.Random(41)
    for _ in range(8):
        n = rng.randrange(2, 6)
        p = rng.randrange(1, n)
        op = SphereOperator(n, p, F(rng.randrange(1, 4)), F(rng.randrange(1, 4)))
        alpha_part, beta_part = spectrum_parts(op, 30)
        for part in (alpha_part, beta_part):
            assert all(key > 0 for key, _ in part)
        assert spectrum(op, 30).multiplicity(0) == 0


def test_scalar_series_example():
    _, got = spectrum_parts(SphereOperator(2, 0, 1, 1), 6)
    assert got == spec([(0, 1), (2, 3), (6, 5)], 6)


def test_degree_zero_uses_scalar_series():
    op = SphereOperator(2, 0, F(5), F(3))
    alpha_part, beta_part = spectrum_parts(op, 18)
    assert alpha_part.is_empty()
    assert beta_part == spec([(0, 1), (6, 3), (18, 5)], 18)  # 3 k(k+1), dim 2k+1
    assert op.duality_extension
    assert spectrum(op, 18).multiplicity(0) == 1


def test_top_degree_swaps_coefficient_and_isolates_zero():
    op = SphereOperator(2, 2, F(5), F(3))
    alpha_part, beta_part = spectrum_parts(op, 30)
    assert beta_part == spec([(0, 1)], 30)
    assert alpha_part.multiplicity(0) == 0
    assert spectrum(op, 30) == spec([(0, 1), (10, 3), (30, 5)], 30)  # 5 k(k+1), dim 2k+1
    assert op.duality_extension
    assert not SphereOperator(3, 1, F(1), F(1)).duality_extension


def test_hodge_symmetry_swaps_parameters():
    rng = random.Random(42)
    for _ in range(8):
        n = rng.randrange(2, 6)
        p = rng.randrange(0, n + 1)
        alpha = F(rng.randrange(1, 4))
        beta = F(rng.randrange(1, 4), 2)
        r_squared = F(rng.randrange(1, 3))
        left = SphereOperator(n, p, alpha, beta, r_squared)
        right = SphereOperator(n, n - p, beta, alpha, r_squared)
        assert spectrum(left, 20) == spectrum(right, 20)
        if 1 <= p <= n - 1:
            la, lb = spectrum_parts(left, 20)
            ra, rb = spectrum_parts(right, 20)
            assert la == rb and lb == ra


def test_radius_rescales_keys():
    op1 = SphereOperator(3, 1, F(2), F(3))
    op4 = SphereOperator(3, 1, F(2), F(3), r_squared=F(4))
    assert spectrum(op4, 10) == spectrum(op1, 40).scale(F(1, 4))


def test_parameter_scaling_cancels_against_radius():
    base = SphereOperator(3, 2, F(1), F(2))
    for c in (F(2), F(1, 3)):
        moved = SphereOperator(3, 2, c * c, 2 * c * c, r_squared=c * c)
        assert spectrum(base, 25) == spectrum(moved, 25)


def test_merged_spectrum_equals_union_of_parts():
    op = SphereOperator(4, 2, F(2), F(5), r_squared=F(3, 2))
    alpha_part, beta_part = spectrum_parts(op, 40)
    assert spectrum(op, 40) == alpha_part.union(beta_part)


def test_equal_parameters_on_middle_degree_interleave():
    op = SphereOperator(2, 1, F(1), F(1))
    for k in range(5):
        assert mu_k(op, k) == lambda_k(op, k + 1)
    chain = coincidences(op, 100)
    assert chain[:4] == ((1, 0), (2, 1), (3, 2), (4, 3))
    details = eigenvalue_details(op, 12)
    assert details[0].value == 2
    assert details[0].multiplicity == 6
    assert {t.series for t in details[0].terms} == {Series.LAMBDA, Series.MU}


def test_equal_parameters_off_middle_have_no_coincidences():
    op = SphereOperator(3, 1, F(1), F(1))
    assert coincidences(op, 200) == ()


def test_tuned_ratio_puts_first_values_together():
    # alpha/beta = (p+1)(n-p) / (p(n-p+1)) makes mu_0 land on lambda_1
    op = SphereOperator(3, 1, F(4), F(3))
    assert mu_k(op, 0) == lambda_k(op, 1) == 12
    assert coincidences(op, 12)[0] == (1, 0)


def test_generic_mode_suppresses_merges():
    op = SphereOperator(2, 1, F(1), F(1), generic=True)
    assert coincidences(op, 50) == ()
    with pytest.raises(ValueError):
        spectrum(op, 10)
    with pytest.raises(ValueError):
        eigenvalue_details(op, 10)
    alpha_part, beta_part = spectrum_parts(op, 6)
    assert alpha_part == spec([(2, 3), (6, 5)], 6)  # (k+1)(k+2), dim_W = 2k+3
    assert beta_part == spec([(2, 3), (6, 5)], 6)  # k(k+1) from k = 1, dim_V = 2k+1


def test_details_bookkeeping_matches_merged_spectrum():
    rng = random.Random(43)
    for _ in range(6):
        n = rng.randrange(2, 5)
        p = rng.randrange(0, n + 1)
        op = SphereOperator(n, p, F(rng.randrange(1, 4)), F(rng.randrange(1, 4)))
        merged = spectrum(op, 30)
        details = eigenvalue_details(op, 30)
        assert [d.value for d in details] == [key for key, _ in merged]
        for detail in details:
            assert merged.multiplicity(detail.value) == detail.multiplicity
            for series in (Series.LAMBDA, Series.MU):
                assert sum(1 for t in detail.terms if t.series is series) <= 1


def test_oracle_recounts_series_dimensions(within):
    assert harmonic_form_dims_oracle(2, 1, 1) == (3, 5)
    assert harmonic_form_dims_oracle(2, 1, 0) == (0, 3)
    # The whole oracle budget, each instance computed once.
    with within(20):
        counts = {
            (n, p, k): harmonic_form_dims_oracle(n, p, k)
            for n in range(2, ORACLE_MAX_AMBIENT_DIM)
            for p in range(1, n)
            for k in range(ORACLE_MAX_POLY_DEGREE + 1)
        }
    for (n, p, k), got in counts.items():
        assert got == (dim_V(n, p, k), dim_W(n, p, k))
        if k >= 1:
            # Hodge duality of the oracle's own counts: V_k on p-forms, W_{k-1} on (n-p)-forms.
            assert got[0] == counts[n, n - p, k - 1][1]


def test_oracle_budget_and_validation():
    with pytest.raises(BudgetExceeded):
        harmonic_form_dims_oracle(5, 2, 0)
    with pytest.raises(BudgetExceeded):
        harmonic_form_dims_oracle(2, 1, 5)
    with pytest.raises(DegreeOutOfRange):
        harmonic_form_dims_oracle(3, 0, 1)
    with pytest.raises(ValueError):
        harmonic_form_dims_oracle(3, 1, -2)


def test_operator_validation():
    with pytest.raises(ValueError):
        SphereOperator(0, 0, F(1), F(1))
    with pytest.raises(DegreeOutOfRange):
        SphereOperator(2, 3, F(1), F(1))
    with pytest.raises(NonpositiveScalar):
        SphereOperator(2, 1, F(0), F(1))
    with pytest.raises(NonpositiveScalar):
        SphereOperator(2, 1, F(1), F(1), r_squared=F(0))
    with pytest.raises(ValueError):
        spectrum(SphereOperator(2, 1, F(1), F(1)), -1)
    with pytest.raises(DegreeOutOfRange):
        lambda_k(SphereOperator(2, 0, F(1), F(1)), 1)


@pytest.mark.parametrize("query", [spectrum, spectrum_parts, eigenvalue_details, coincidences])
@pytest.mark.parametrize("cutoff", [-1, F(-1, 3), -(10**100)], ids=["int", "fraction", "huge"])
def test_negative_cutoff_is_refused_by_every_query(query, cutoff):
    with pytest.raises(ValueError, match="^cutoff must be nonnegative$"):
        query(SphereOperator(3, 1, F(1), F(2), r_squared=F(1, 2)), cutoff)


def test_closed_form_dimensions_are_charged_too(within, monkeypatch, tmp_path, capsys):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    n, p = 10**8, 5 * 10**7
    for dim in (dim_V, dim_W):
        with within(1), pytest.raises(BudgetExceeded):
            dim(n, p, 1)
    # the sphere recovery reads each series' first dimension
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps({"unit": "plain", "cutoff": "1", "entries": [["1", 1]]}))
    argv = ["recover", "sphere-params", "--spectrum", str(path), "--n", str(n), "--p", str(p),
            "--r2", "1"]
    with within(1):
        code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert json.loads(captured.err)["error"] == "BudgetExceeded"


@pytest.mark.parametrize(
    "op",
    [SphereOperator(2, 0, F(1), F(1)), SphereOperator(2, 2, F(1), F(1)),
     SphereOperator(3, 1, F(1), F(2), generic=True)],
    ids=["p=0", "p=n", "generic"],
)
def test_coincidences_refuse_a_negative_cutoff_where_they_read_no_series(op):
    assert coincidences(op, 5) == ()
    with pytest.raises(ValueError, match="^cutoff must be nonnegative$"):
        coincidences(op, -1)


NONPOSITIVE = [(0, 1), (-1, 1), (1, 0), (1, -2)]


@pytest.mark.parametrize("coefficient, r_squared", NONPOSITIVE)
def test_lambda_series_spectrum_rejects_nonpositive_scalars(within, coefficient, r_squared):
    with within(2), pytest.raises(NonpositiveScalar):
        spectrum_parts(SphereOperator(3, 1, 1, coefficient, r_squared), 5)


@pytest.mark.parametrize("coefficient, r_squared", NONPOSITIVE)
def test_mu_series_spectrum_rejects_nonpositive_scalars(within, coefficient, r_squared):
    with within(2), pytest.raises(NonpositiveScalar):
        spectrum_parts(SphereOperator(3, 1, coefficient, 1, r_squared), 5)


@pytest.mark.parametrize("coefficient, r_squared", NONPOSITIVE)
def test_scalar_series_spectrum_rejects_nonpositive_scalars(within, coefficient, r_squared):
    with within(2), pytest.raises(NonpositiveScalar):
        spectrum_parts(SphereOperator(3, 0, 1, coefficient, r_squared), 5)


# Each series is charged on its own, so the other part of the operator has fewer terms.
# The charge is the term count times 1 + min(n, last k) + min(p, n - p), the smaller
# sides of the two binomials in each dimension; the scalar series has p = 0.  A single
# dimension is one term, cut at its own value.
@pytest.mark.parametrize(
    "build, n, p, start, value, cutoff",
    [
        (lambda cutoff: spectrum_parts(SphereOperator(3, 1, F(4, 3), F(2, 3), F(5, 2)), cutoff)[1],
         3, 1, 1, lambda k: F(2, 3) * (k + 1) * (k + 1) / F(5, 2), F(2, 3) * 64 / F(5, 2)),
        (lambda cutoff: spectrum_parts(SphereOperator(5, 2, F(1, 7), 1, 3), cutoff)[0],
         5, 2, 0, lambda k: F(1, 7) * (k + 2) * (k + 4) / 3, F(1000, 3)),
        (lambda cutoff: spectrum_parts(SphereOperator(4, 0, 1, F(3, 2), F(1, 3)), cutoff)[1],
         4, 0, 0, lambda k: F(3, 2) * k * (k + 3) / F(1, 3), 500),
        (lambda cutoff: [dim_V(7, 2, 3)], 7, 2, 3, lambda k: (k + 2) * (k + 4), 35),
        (lambda cutoff: [dim_W(6, 4, 2)], 6, 4, 2, lambda k: (k + 4) * (k + 3), 30),
        (lambda cutoff: [harmonic_polynomial_dim(5, 3)], 4, 0, 3, lambda k: k * (k + 3), 18),
    ],
    ids=["lambda-cutoff-on-a-value", "mu", "scalar", "dim_V", "dim_W", "harmonic"],
)
def test_series_budget_counts_exact_terms(build, n, p, start, value, cutoff, monkeypatch):
    terms = 0
    while value(start + terms) <= cutoff:
        terms += 1
    last = start + terms - 1
    charge = terms * (1 + min(n, last) + min(p, n - p))
    monkeypatch.setenv(BUDGET_ENV_VAR, str(charge))
    assert len(build(cutoff)) == terms
    monkeypatch.setenv(BUDGET_ENV_VAR, str(charge - 1))
    with pytest.raises(BudgetExceeded):
        build(cutoff)



@pytest.mark.parametrize("query", [spectrum, spectrum_parts, eigenvalue_details, coincidences])
def test_every_query_steps_lambda_before_mu(query, monkeypatch):
    # beta = 2: lambda has k = 1..21 below 1000, mu has k = 0..29; each term costs
    # 1 + min(3, last k) + min(1, 2) = 5, so both series are over a budget of 10
    monkeypatch.setenv(BUDGET_ENV_VAR, "10")
    with pytest.raises(BudgetExceeded) as raised:
        query(SphereOperator(3, 1, F(1), F(2)), 1000)
    assert str(raised.value) == "sphere dimensions need 21 terms times 5 work, budget is 10"

# Few terms, but each dimension is a product of binomials with thousands of digits.
@pytest.mark.parametrize(
    "n, p, cutoff",
    [
        ("20000", "10000", "1000000000"),
        # one term per series: the dimensions' C(n, p) alone is past the budget
        ("1000000000", "500000000", "250000000500000000"),
        # one term, within the term charge; computing C(2000000, 1000000) would take most
        # of a minute, so the binomial charge refuses it first
        ("2000000", "1000000", "1000001000000"),
        # C(10^100, 100000), charged 100000 x 333 bits
        (str(10**100), "100000", str(100000 * (10**100 - 99999))),
    ],
    ids=["many-wide-terms", "one-huge-term", "one-term-huge-binomial", "huge-n-huge-binomial"],
)
def test_huge_sphere_dimensions_are_refused_before_any_term(within, monkeypatch, capsys,
                                                           n, p, cutoff):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    argv = ["spectrum", "sphere", "--n", n, "--p", p, "--alpha", "1", "--beta", "1",
            "--r2", "1", "--cutoff", cutoff]
    with within(1):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "BudgetExceeded"


def test_a_dimension_charges_its_binomials_before_computing_them(within, monkeypatch):
    # dim_W(100, 1, 64) steps from C(100, 1) and C(164, 100); the smaller side
    # of the second is 64, so it is charged 64 x bit_length(164) = 512
    monkeypatch.setenv(BUDGET_ENV_VAR, "512")
    assert dim_W(100, 1, 64) == 100 * comb(164, 100) * 229 // (65 * 164)
    monkeypatch.setenv(BUDGET_ENV_VAR, "511")
    with pytest.raises(BudgetExceeded) as raised:
        dim_W(100, 1, 64)
    assert str(raised.value) == "binomial C(164, 64) needs 64 x 8 bits, budget is 511"
    # C(3000000, 1000000) would take tens of seconds; the default budget refuses it at once
    monkeypatch.delenv(BUDGET_ENV_VAR)
    with within(1), pytest.raises(BudgetExceeded, match=r"^binomial C\(3000000, 1000000\)"):
        dim_W(2000000, 1, 1000000)


def test_huge_sphere_cutoff_is_refused_before_any_term(within, monkeypatch, capsys):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    argv = ["spectrum", "sphere", "--n", "3", "--p", "1", "--alpha", "1", "--beta", "1",
            "--r2", "1", "--cutoff", "1000000000000000000"]
    with within(1):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "BudgetExceeded"
