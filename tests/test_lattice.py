"""Lattice duals and exact norm enumeration, layered vs brute force."""

import random
from fractions import Fraction as F

import pytest

from hodgespec.errors import (
    BoxTooLarge,
    BudgetExceeded,
    ParseError,
    SingularBasis,
    UnrepresentedNorm,
)
from hodgespec.lattice import (
    BUDGET_ENV_VAR,
    Lattice,
    _charge,
    brute_force_enumerate,
    count_norm,
    dual,
    enumerate_norms,
    standard_lattice,
)
from hodgespec.rationals import _charge_comb
from hodgespec.torus import Branch, TorusOperator, eigenvalue_multiplicity, f_spectrum

from oracles import exact_visit_count, walk_data


def random_lattice(rng: random.Random, n: int) -> Lattice:
    # upper triangular with unit-or-larger diagonal keeps enumeration cheap
    rows = []
    for i in range(n):
        row = [F(0)] * n
        row[i] = F(rng.randrange(1, 4))
        for j in range(i + 1, n):
            row[j] = F(rng.randrange(-2, 3), rng.randrange(1, 3))
        rows.append(tuple(row))
    return Lattice(tuple(rows))


def as_dict(table):
    return dict(table.entries)


def test_standard_lattice_is_self_dual():
    for n in (1, 2, 4):
        data = dual(standard_lattice(n))
        assert data.gram == data.dual_gram


def test_dual_of_rectangular_lattice():
    data = dual(Lattice(((F(2), F(0)), (F(0), F(3)))))
    assert data.dual_gram == ((F(1, 4), F(0)), (F(0), F(1, 9)))


def dual_basis(data):
    # rows of dual_gram x B: their Gram matrix is dual_gram G dual_gram = dual_gram
    basis = data.lattice.basis
    return tuple(
        tuple(sum(g * row[c] for g, row in zip(grow, basis)) for c in range(len(basis[0])))
        for grow in data.dual_gram
    )


def test_dual_pairs_to_identity():
    rng = random.Random(21)
    for _ in range(10):
        lattice = random_lattice(rng, rng.randrange(2, 5))
        data = dual(lattice)
        for i, dv in enumerate(dual_basis(data)):
            for j, bv in enumerate(lattice.basis):
                pairing = sum(a * b for a, b in zip(dv, bv))
                assert pairing == (1 if i == j else 0)


def test_dual_is_an_involution():
    rng = random.Random(22)
    for _ in range(10):
        lattice = random_lattice(rng, rng.randrange(2, 5))
        data = dual(lattice)
        back = dual(Lattice(dual_basis(data)))
        assert back.gram == data.dual_gram
        assert back.dual_gram == data.gram
        assert dual_basis(back) == lattice.basis


def test_dual_of_z170_skips_zeros(within, monkeypatch):
    # Z^n's Gram matrix is the identity; multiplying out its zeros costs n^3/6 Fraction steps.
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    with within(2):
        data = dual(standard_lattice(170))
    assert (data.clear, data.terms, data.weights, data.scale) == walk_data(data.dual_gram)
    assert data.weights == (1,) * 170


def test_dual_rejects_singular_basis():
    with pytest.raises(SingularBasis):
        dual(Lattice(((F(1), F(1)), (F(1), F(1)))))


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(())
    with pytest.raises(ValueError):
        Lattice(((F(1), F(0)),))
    with pytest.raises(ValueError):
        standard_lattice(2).scaled(0)


def test_enumerate_square_lattice():
    data = dual(standard_lattice(2))
    assert as_dict(enumerate_norms(data, 2)) == {F(0): 1, F(1): 4, F(2): 4}
    assert as_dict(enumerate_norms(data, 0)) == {F(0): 1}


def test_enumerate_cubic_lattice():
    data = dual(standard_lattice(3))
    assert as_dict(enumerate_norms(data, 1)) == {F(0): 1, F(1): 6}


def test_count_norm_examples():
    data = dual(standard_lattice(2))
    assert count_norm(data, 0) == 1
    assert count_norm(data, 1) == 4
    assert count_norm(data, 3) == 0
    assert count_norm(data, F(1, 2)) == 0
    assert count_norm(data, -1) == 0


def test_enumerate_rejects_negative_bound():
    data = dual(standard_lattice(2))
    with pytest.raises(ValueError):
        enumerate_norms(data, -1)
    with pytest.raises(ValueError):
        brute_force_enumerate(data, -1)


def test_layered_matches_brute_force_on_square_lattice():
    data = dual(standard_lattice(2))
    assert enumerate_norms(data, 50).entries == brute_force_enumerate(data, 50).entries


def test_layered_matches_brute_force_on_sheared_lattice():
    lattice = Lattice(((F(1), F(1, 2)), (F(0), F(1))))
    data = dual(lattice)
    assert enumerate_norms(data, 10).entries == brute_force_enumerate(data, 10).entries


def test_layered_matches_brute_force_random():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randrange(2, 4)
        data = dual(random_lattice(rng, n))
        bound = F(rng.randrange(1, 8))
        assert enumerate_norms(data, bound).entries == brute_force_enumerate(data, bound).entries


def test_counts_are_sorted_and_symmetric():
    rng = random.Random(24)
    for _ in range(6):
        data = dual(random_lattice(rng, rng.randrange(2, 4)))
        table = enumerate_norms(data, 6)
        norms = [value for value, _ in table.entries]
        assert list(norms) == sorted(norms)
        assert table.multiplicity(0) == 1
        for value, count in table.entries:
            if value > 0:
                assert count % 2 == 0
        assert sum(c for _, c in table.entries) % 2 == 1


def test_scaling_moves_norms():
    rng = random.Random(25)
    lattice = random_lattice(rng, 3)
    data = dual(lattice)
    for factor in (F(2), F(1, 3)):
        scaled = dual(lattice.scaled(factor))
        base = enumerate_norms(data, 4)
        moved = enumerate_norms(scaled, F(4) / (factor * factor))
        assert moved.entries == tuple(
            (value / (factor * factor), count) for value, count in base.entries
        )


def test_norm_table_lookup():
    data = dual(standard_lattice(2))
    table = enumerate_norms(data, 2)
    assert table.multiplicity(1) == 4
    assert table.multiplicity(F(3, 2)) == 0
    assert table.multiplicity(17) == 0
    assert [value for value, _ in table.entries] == [F(0), F(1), F(2)]


def test_json_round_trip_row_major():
    lattice = Lattice(((F(1), F(1, 2)), (F(0), F(1))))
    payload = lattice.to_json_dict()
    assert payload == {
        "n": 2,
        "basis": [["1", "1/2"], ["0", "1"]],
        "layout": "row-major",
    }
    assert Lattice.from_json_dict(payload) == lattice


def test_json_column_major_transposes():
    payload = {"n": 2, "basis": [["1", "0"], ["1/2", "1"]], "layout": "column-major"}
    got = Lattice.from_json_dict(payload)
    assert got == Lattice(((F(1), F(1, 2)), (F(0), F(1))))


def test_json_defaults_to_row_major():
    payload = {"n": 2, "basis": [["2", "0"], ["0", "3"]]}
    assert Lattice.from_json_dict(payload) == Lattice(((F(2), F(0)), (F(0), F(3))))


@pytest.mark.parametrize(
    "payload",
    [
        {"basis": [["1"]]},
        {"n": 2},
        {"n": 0, "basis": []},
        {"n": True, "basis": [["1"]]},
        {"n": "2", "basis": [["1", "0"], ["0", "1"]]},
        {"n": 2, "basis": [["1", "0"]]},
        {"n": 2, "basis": [["1", "0"], ["0"]]},
        {"n": 2, "basis": [["1", "0"], ["0", "1"]], "layout": "diagonal"},
        {"n": 2, "basis": [["1.5", "0"], ["0", "1"]]},
        {"n": 1, "basis": [["1/0"]]},
    ],
)
def test_json_rejects_malformed_payloads(payload):
    with pytest.raises(ParseError):
        Lattice.from_json_dict(payload)


def test_budget_argument_limits_enumeration(monkeypatch):
    data = dual(standard_lattice(2))
    monkeypatch.setenv(BUDGET_ENV_VAR, "3")
    with pytest.raises(BudgetExceeded):
        enumerate_norms(data, 4)
    with pytest.raises(BoxTooLarge):
        brute_force_enumerate(data, 4)


@pytest.mark.parametrize(
    "lattice, bound, small_budget",
    [
        (standard_lattice(2), 4, 3),
        (standard_lattice(2), 100, 5),
        (Lattice(((F(1), F(1, 2)), (F(0), F(1)))), 10, 5),
        (Lattice(((F(2), F(1, 3), F(-1, 2)), (F(0), F(3, 5), F(1, 7)), (F(0), F(0), F(1)))), 3, 5),
    ],
)
def test_budget_counts_exact_candidate_visits(lattice, bound, small_budget, monkeypatch):
    data = dual(lattice)
    visits = exact_visit_count(data, F(bound))
    want = brute_force_enumerate(data, bound)
    # The exact-key queries walk the same ball: alpha < beta puts the cross
    # norm bound / 2 inside it, so the walk ends at the norm itself.
    op = TorusOperator(lattice, 1, F(1), F(2))
    base, cross = want.multiplicity(bound), want.multiplicity(F(bound, 2))

    def multiplicity():
        return eigenvalue_multiplicity(op, bound, Branch.ALPHA)

    monkeypatch.setenv(BUDGET_ENV_VAR, str(small_budget))
    with pytest.raises(BudgetExceeded):
        enumerate_norms(data, bound)
    monkeypatch.setenv(BUDGET_ENV_VAR, str(visits - 1))
    queries = (lambda: enumerate_norms(data, bound), lambda: count_norm(data, bound), multiplicity)
    for query in queries:
        with pytest.raises(BudgetExceeded, match="candidate visits"):
            query()
    monkeypatch.setenv(BUDGET_ENV_VAR, str(visits))
    assert enumerate_norms(data, bound) == want
    assert count_norm(data, bound) == base
    if base:
        assert multiplicity() == op.alpha_copies * base + op.beta_copies * cross
    else:
        with pytest.raises(UnrepresentedNorm):
            multiplicity()


def test_budget_env_var(monkeypatch):
    data = dual(standard_lattice(2))
    monkeypatch.setenv(BUDGET_ENV_VAR, "3")
    with pytest.raises(BudgetExceeded):
        enumerate_norms(data, 4)
    monkeypatch.setenv(BUDGET_ENV_VAR, "banana")
    with pytest.raises(ParseError):
        enumerate_norms(data, 1)
    monkeypatch.setenv(BUDGET_ENV_VAR, "9x" * 3000)
    with pytest.raises(ParseError) as raised:
        enumerate_norms(data, 1)
    assert len(str(raised.value)) < 200
    monkeypatch.setenv(BUDGET_ENV_VAR, "0")
    with pytest.raises(ParseError):
        enumerate_norms(data, 1)


def test_budget_env_var_is_read_as_a_whole_rational_literal(monkeypatch):
    # the integer-flag rule: ASCII digits, no "_", a whole value, sign and digits kept
    monkeypatch.setenv(BUDGET_ENV_VAR, "4/2")
    _charge(2, lambda: pytest.fail("a budget of 4/2 is 2"))
    refusals = {
        "1_000": "not a rational literal",
        "\u0661\u0660\u0660": "not a rational literal",  # Arabic-Indic 100, which int() reads
        "9" * 5000: "rational literal of 5000 characters is too long",
        "3/2": "must be a positive integer, got 3/2",
        "-" + "9" * 4000: "must be a positive integer, got a negative 4000-digit integer",
    }
    for raw, reason in refusals.items():
        monkeypatch.setenv(BUDGET_ENV_VAR, raw)
        with pytest.raises(ParseError) as raised:
            _charge(1, lambda: "one step")
        message = str(raised.value)
        assert message.startswith(BUDGET_ENV_VAR) and reason in message and len(message) < 200


def test_a_charge_words_its_refusal_only_when_it_refuses(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "5")
    _charge(5, lambda: pytest.fail("a passing charge formatted its text"))
    with pytest.raises(BoxTooLarge) as raised:
        _charge(6, lambda: "six cells", BoxTooLarge)
    assert str(raised.value) == "six cells, budget is 5"


def test_a_binomial_is_charged_its_bit_bound_from_k_64(monkeypatch):
    # C(1000, 64) has fewer than 64 x bit_length(1000) = 640 bits
    monkeypatch.setenv(BUDGET_ENV_VAR, "640")
    _charge_comb(1000, 64)
    _charge_comb(1000, 936)  # the smaller side is the one charged
    monkeypatch.setenv(BUDGET_ENV_VAR, "639")
    with pytest.raises(BudgetExceeded) as raised:
        _charge_comb(1000, 936)
    assert str(raised.value) == "binomial C(1000, 64) needs 64 x 10 bits, budget is 639"
    # below k = 64 a binomial is free, however large N is
    monkeypatch.setenv(BUDGET_ENV_VAR, "1")
    for n, k in ((1000, 63), (10**100, 63), (10**100, 10**100 - 63), (5, 7), (5, -1)):
        _charge_comb(n, k)


def test_dual_charges_n_cubed_to_the_budget(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "27")
    assert dual(standard_lattice(3)).dual_gram == standard_lattice(3).basis
    monkeypatch.setenv(BUDGET_ENV_VAR, "26")
    with pytest.raises(BudgetExceeded, match="dimension 3"):
        dual(standard_lattice(3))


CUBE = ((F(2), F(1, 3), F(-1, 2)), (F(0), F(3, 5), F(1, 7)), (F(0), F(0), F(1)))


def test_a_lattice_object_keeps_its_dual_data():
    lattice = Lattice(CUBE)
    assert dual(lattice) is dual(lattice)
    assert dual(lattice).lattice is lattice


def test_equal_distinct_lattices_each_build_and_pay(monkeypatch):
    first, second = Lattice(CUBE), Lattice(CUBE)
    assert first == second and first is not second
    monkeypatch.setenv(BUDGET_ENV_VAR, "27")
    data = dual(first)
    monkeypatch.setenv(BUDGET_ENV_VAR, "26")
    assert dual(first) is data  # already built: no charge
    with pytest.raises(BudgetExceeded, match="dimension 3"):
        dual(second)
    monkeypatch.setenv(BUDGET_ENV_VAR, "27")
    assert dual(second) == data
    assert dual(second) is not data


def test_a_refused_build_stores_nothing(monkeypatch):
    lattice = Lattice(CUBE)
    monkeypatch.setenv(BUDGET_ENV_VAR, "26")
    for _ in range(2):
        with pytest.raises(BudgetExceeded, match="dimension 3"):
            dual(lattice)
    monkeypatch.setenv(BUDGET_ENV_VAR, "27")
    assert dual(lattice).dual_gram == dual(Lattice(CUBE)).dual_gram
    singular = Lattice(((F(1), F(1)), (F(1), F(1))))
    for _ in range(2):
        with pytest.raises(SingularBasis):
            dual(singular)


def test_owned_dual_data_leaves_the_lattice_value_alone():
    lattice, fresh = Lattice(CUBE), Lattice(CUBE)
    before = (repr(lattice), hash(lattice), lattice.to_json_dict())
    dual(lattice)
    assert (repr(lattice), hash(lattice), lattice.to_json_dict()) == before
    assert (repr(fresh), hash(fresh), fresh.to_json_dict()) == before
    assert lattice == fresh and fresh == lattice
    assert lattice._fields == ("basis",)
    assert len({lattice, fresh}) == 1


def test_dual_data_holds_the_walk_data_and_builds_its_matrices_on_first_read():
    lattice = Lattice(CUBE)
    data = dual(lattice)
    assert data._fields == ("lattice", "clear", "terms", "weights", "scale")
    # The walks and the queries on them read only the integer walk data.
    enumerate_norms(data, 3)
    count_norm(data, 2)
    f_spectrum(TorusOperator(lattice, 1, F(1), F(2)), 3)
    assert "gram" not in vars(data) and "dual_gram" not in vars(data)
    # The box scan reads both Fraction matrices, which are then kept.
    brute_force_enumerate(data, 3)
    assert {"gram", "dual_gram"} <= vars(data).keys()
    assert vars(data)["gram"] is data.gram and vars(data)["dual_gram"] is data.dual_gram


# 324 |l|^2 = (9 x0 - 5 x1)^2 + 900 x1^2: the last layer has c = 9 and shift -5 x1.
NINE = Lattice(((F(2), F(1, 3)), (F(0), F(3, 5))))


def test_exact_key_counts_the_one_member_of_plus_minus_y():
    data = dual(NINE)
    walk = (data.clear, data.terms, data.weights, data.scale)
    assert walk == ((9, 1), (((1, -5),), ()), (1, 900), 324)
    # At x1 = 1 the key 916 needs y = +-4; only 4 = -5 mod 9 is a member (x0 = 1),
    # and x1 = -1 mirrors it, so the norm 916/324 = 229/81 has 2 vectors, not 4.
    assert count_norm(data, F(229, 81)) == 2
    table = brute_force_enumerate(data, 12)
    assert table.multiplicity(F(229, 81)) == 2
    for norm, count in table.entries:
        assert count_norm(data, norm) == count
    assert count_norm(data, F(230, 81)) == 0


@pytest.mark.parametrize("lattice", [standard_lattice(2), NINE, Lattice(CUBE)])
def test_exact_key_counts_the_zero_vector_once(lattice):
    assert count_norm(dual(lattice), 0) == 1


@pytest.mark.parametrize("lattice", [standard_lattice(3), NINE, Lattice(CUBE)])
def test_equal_parameters_count_the_one_key_once(lattice):
    # With alpha = beta the cross norm equals the norm: one key, read for both families.
    data = dual(lattice)
    table = enumerate_norms(data, 6)
    for p in range(lattice.n + 1):
        op = TorusOperator(lattice, p, F(3, 2), F(3, 2))
        merged = f_spectrum(op, 9)
        for norm, count in table.entries[1:]:
            want = (op.alpha_copies + op.beta_copies) * count
            for branch in Branch:
                assert eigenvalue_multiplicity(op, norm, branch) == want
                assert merged.multiplicity(F(3, 2) * norm) == want


def test_standard_lattice_charges_n_cubed_before_building(within, monkeypatch):
    # The identity basis of Z^(10^6) would hold 10^12 Fractions.
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    with within(1):
        with pytest.raises(BudgetExceeded, match="dimension 1000000 needs"):
            standard_lattice(10**6)
        assert standard_lattice(170).n == 170  # 170^3 fits the default budget


def test_large_box_is_rejected_before_scanning(monkeypatch):
    data = dual(standard_lattice(3))
    monkeypatch.setenv(BUDGET_ENV_VAR, "1000")
    with pytest.raises(BoxTooLarge):
        brute_force_enumerate(data, 10_000)
