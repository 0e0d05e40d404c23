from __future__ import annotations

import dataclasses
import random
from fractions import Fraction as F
from math import gcd, isqrt, lcm, prod

import pytest

from hodgespec import multiset
from hodgespec.errors import (
    BudgetExceeded, CutoffExceeded, EmptySpectrum, NonpositiveScalar, ParseError, UnitMismatch
)
from hodgespec.lattice import BUDGET_ENV_VAR
from hodgespec.multiset import (
    Unit,
    WeightedSpectrum,
    _from_int_keys,
    repeated_union,
)


def spec(pairs, cutoff, unit=Unit.PLAIN):
    return WeightedSpectrum.from_pairs(unit, cutoff, [(F(k), m) for k, m in pairs])


def random_spectrum(rng, cutoff=F(20), unit=Unit.PLAIN):
    pairs = []
    for _ in range(rng.randrange(0, 8)):
        key = F(rng.randrange(0, 40), rng.choice((1, 2, 4)))
        if key <= cutoff:
            pairs.append((key, rng.randrange(1, 5)))
    return WeightedSpectrum.from_pairs(unit, cutoff, pairs)


def test_from_pairs_aggregates_and_sorts():
    w = spec([(3, 1), (0, 2), (3, 2)], 5)
    assert w.entries == ((F(0), 2), (F(3), 3))
    assert w.multiplicity(3) == 3
    assert w.multiplicity(7) == 0
    assert sum(mult for _, mult in w) == 5
    assert len(w) == 2 and list(w) == [(F(0), 2), (F(3), 3)]


def test_construction_rejects_bad_data():
    with pytest.raises(ValueError):
        spec([(6, 1)], 5)  # key beyond cutoff
    with pytest.raises(ValueError):
        spec([(1, -2)], 5)
    with pytest.raises(ValueError):
        WeightedSpectrum.from_pairs(Unit.PLAIN, 5, [(F(-1), 1)])
    with pytest.raises(ValueError, match="negative eigenvalue key: -1"):
        WeightedSpectrum(Unit.PLAIN, F(1), ((F(-1), 2), (F(1, 2), 1)))
    with pytest.raises(ValueError):
        WeightedSpectrum(Unit.PLAIN, F(-1), ())
    with pytest.raises(ValueError):
        WeightedSpectrum(Unit.PLAIN, F(5), ((F(2), 1), (F(1), 1)))
    with pytest.raises(TypeError):
        WeightedSpectrum("plain", F(5), ())


def test_zero_multiplicity_pairs_are_dropped():
    w = WeightedSpectrum.from_pairs(Unit.PLAIN, 5, [(F(1), 0), (F(2), 1)])
    assert w.entries == ((F(2), 1),)


def test_from_pairs_refuses_multiplicities_that_are_not_ints():
    for bad, shown in ((2.7, "2.7"), ("3", "'3'"), (True, "True"), (-2, "-2")):
        with pytest.raises(ValueError) as raised:
            WeightedSpectrum.from_pairs(Unit.PLAIN, 5, [(F(1), 3), (F(1), bad)])
        assert str(raised.value) == f"multiplicity must be a positive int, got {shown}"
    assert WeightedSpectrum.from_pairs(Unit.PLAIN, 5, [(F(1), 0)]).is_empty()



def test_entries_are_stored_as_a_tuple_of_pairs():
    from_list = WeightedSpectrum(Unit.PLAIN, 5, [(F(1), 2), [F(3), 1]])
    from_tuple = WeightedSpectrum(Unit.PLAIN, 5, ((F(1), 2), (F(3), 1)))
    assert from_list == from_tuple and from_list.entries == from_tuple.entries
    assert type(from_list.entries) is tuple and all(type(e) is tuple for e in from_list.entries)
    assert hash(from_list) == hash(from_tuple)
    assert len({from_list, from_tuple}) == 1
    with pytest.raises(AttributeError):
        from_list.entries.append((F(9), 1))
    # int keys are exact and stay as given
    assert WeightedSpectrum(Unit.PLAIN, 5, [(0, 1), (2, 3)]).entries == ((0, 1), (2, 3))


@pytest.mark.parametrize(
    "key, shown", [(0.5, "0.5"), ("1", "'1'"), (True, "True")], ids=["float", "str", "bool"]
)
def test_constructor_refuses_keys_that_are_not_int_or_fraction(key, shown):
    with pytest.raises(ValueError) as raised:
        WeightedSpectrum(Unit.PLAIN, 5, ((key, 1), (2, 3)))
    assert str(raised.value) == f"eigenvalue key must be an int or a Fraction, got {shown}"
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        WeightedSpectrum(Unit.PLAIN, 5, [(F(0), 1), (key, 1)])

# (unit, cutoff, int entries, den): each is refused, and the same entries as
# Fractions key / den are refused by the public constructor.
BAD_INT_KEYED = {
    "unsorted": (Unit.PLAIN, 5, [(3, 1), (1, 1)], 2),
    "repeated": (Unit.PLAIN, 5, [(1, 1), (1, 2)], 2),
    "negative-key": (Unit.PLAIN, 5, [(-1, 1), (2, 1)], 3),
    "past-cutoff": (Unit.FOUR_PI_SQUARED, F(5, 4), [(1, 1), (2, 1), (3, 4), (5, 1)], 2),
    "past-cutoff-by-one": (Unit.PLAIN, F(7, 3), [(13, 1), (14, 1), (15, 1)], 6),
    "zero-multiplicity": (Unit.PLAIN, 5, [(1, 1), (2, 0)], 1),
    "bool-multiplicity": (Unit.PLAIN, 5, [(1, True)], 1),
    "huge-multiplicity": (Unit.PLAIN, 5, [(1, -(10**100))], 1),
    "negative-cutoff": (Unit.PLAIN, F(-1, 2), [], 2),
    "unit-not-a-unit": ("plain", 5, [(1, 1)], 2),
}


@pytest.mark.parametrize("case", BAD_INT_KEYED.values(), ids=BAD_INT_KEYED.keys())
def test_int_keyed_builder_refuses_what_the_constructor_refuses(case):
    unit, cutoff, entries, den = case
    with pytest.raises((TypeError, ValueError)) as public:
        WeightedSpectrum(unit, cutoff, tuple((F(key, den), mult) for key, mult in entries))
    with pytest.raises(public.type) as trusted:
        _from_int_keys(unit, cutoff, entries, den)
    assert str(trusted.value) == str(public.value)


def test_int_keyed_builder_keeps_a_key_on_the_cutoff():
    built = _from_int_keys(Unit.PLAIN, F(7, 3), [(0, 2), (13, 1), (14, 3)], 6)
    assert built == WeightedSpectrum(Unit.PLAIN, F(7, 3), ((F(0), 2), (F(13, 6), 1), (F(7, 3), 3)))
    assert type(built.cutoff) is F and all(type(key) is F for key, _ in built)


# Keys are held as int numerators over the least denominator that makes them
# integers, so one value is one spectrum whatever denominator built it.
@pytest.mark.parametrize(
    "values",
    [((0, 1), (1, 3), (3, 2)), ((F(0), 2), (F(1, 2), 1), (F(7, 4), 5))],
    ids=["integer-keys", "quarter-keys"],
)
def test_one_value_is_one_spectrum_whatever_built_it(values):
    cutoff = F(15, 4)
    fractions = tuple((F(key), mult) for key, mult in values)
    built = [
        WeightedSpectrum(Unit.PLAIN, cutoff, fractions),
        *(_from_int_keys(Unit.PLAIN, cutoff, [(int(key * den), mult) for key, mult in fractions],
                         den) for den in (4, 12)),
    ]
    if all(key.denominator == 1 for key, _ in fractions):
        built.append(WeightedSpectrum(Unit.PLAIN, cutoff, [(int(key), m) for key, m in values]))
        built.append(_from_int_keys(Unit.PLAIN, cutoff, [(2 * int(key), m) for key, m in values], 2))
    for spectrum in built:
        assert spectrum == built[0] and hash(spectrum) == hash(built[0])
        assert spectrum.entries == fractions
        assert all(type(key) is F for key, _ in spectrum.entries)
        assert spectrum._den == lcm(*(key.denominator for key, _ in fractions))
    assert len(set(built)) == 1


def test_entries_read_back_int_keys_as_fractions():
    built = WeightedSpectrum(Unit.PLAIN, 5, [(0, 1), (2, 3)])
    assert built.entries == ((F(0), 1), (F(2), 3))
    assert all(type(key) is F for key, _ in built.entries)
    assert all(type(key) is F for key, _ in built)
    assert type(built.min_entry()[0]) is F
    assert [field.name for field in dataclasses.fields(built)] == ["unit", "cutoff", "_den", "_ints"]
    assert (built._den, built._ints) == (1, ((0, 1), (2, 3)))


def test_algebra_keeps_the_least_denominator():
    halves = spec([(F(1, 2), 1), (1, 2)], 4)
    thirds = spec([(F(1, 3), 1), (1, 1)], 4)
    assert halves.union(thirds)._den == 6
    assert halves.union(thirds).difference(thirds) == halves
    assert halves.union(thirds).difference(thirds)._den == 2
    assert halves.truncate(F(3, 4)) == spec([(F(1, 2), 1)], F(3, 4))
    assert halves.truncate(F(3, 4)).difference(spec([(F(1, 2), 1)], 4))._den == 1
    assert halves.scale(2) == spec([(1, 1), (2, 2)], 8) and halves.scale(2)._den == 1
    assert halves.scale(F(2, 3)) == spec([(F(1, 3), 1), (F(2, 3), 2)], F(8, 3))
    assert halves.with_unit(Unit.FOUR_PI_SQUARED)._ints == halves._ints


def test_keys_over_a_wide_common_denominator_are_charged_first(monkeypatch):
    # Keys 1/p over distinct primes p make the common denominator their product,
    # and every key an int that wide: the 64-bit words of all keys are charged
    # before any is made.
    primes = [p for p in range(2, 600) if all(p % q for q in range(2, isqrt(p) + 1))]
    entries = [(F(1, p), 1) for p in reversed(primes)]
    words = len(entries) * (prod(primes).bit_length() >> 6)
    monkeypatch.setenv(BUDGET_ENV_VAR, str(words))
    assert len(WeightedSpectrum(Unit.PLAIN, 1, entries)) == len(primes)
    monkeypatch.setenv(BUDGET_ENV_VAR, str(words - 1))
    with pytest.raises(BudgetExceeded) as raised:
        WeightedSpectrum(Unit.PLAIN, 1, entries)
    bits = prod(primes).bit_length()
    assert str(raised.value) == (
        f"{len(primes)} keys over a {bits}-bit common denominator, budget is {words - 1}"
    )
    # keys over one shared denominator are as wide as their Fractions were
    monkeypatch.delenv(BUDGET_ENV_VAR)
    shared = [(F(k, prod(primes)), 1) for k in range(1, 1000)]
    assert WeightedSpectrum(Unit.PLAIN, 1, shared)._den == prod(primes)


def test_the_constructor_stores_least_terms_without_running_a_gcd(monkeypatch):
    # Over the lcm of already reduced denominators the numerators are in least terms.
    def refuse(*_):
        raise AssertionError("the constructor ran a gcd")

    rng = random.Random(26)
    for _ in range(300):
        size = rng.randrange(0, 8)
        keys = sorted({F(rng.randrange(0, 400), rng.randrange(1, 90)) for _ in range(size)})
        entries = [(key, rng.randrange(1, 4)) for key in keys]
        with monkeypatch.context() as patched:
            patched.setattr(multiset, "gcd", refuse)
            built = WeightedSpectrum(Unit.PLAIN, 400, entries)
        assert built._den == lcm(*(key.denominator for key in keys))
        assert gcd(built._den, *(key for key, _ in built._ints)) == 1
        assert built.entries == tuple(entries)


def test_the_least_terms_reduction_is_charged_from_a_64_bit_denominator(within, monkeypatch):
    # Keys 1/p over the first 4000 primes: their 54281-bit product is the least
    # denominator, so the constructor needs no gcd, while truncate and difference
    # reduce it once more, at about a millisecond per key.
    composite = [False] * 38000
    for p in range(2, 195):
        composite[p * p::p] = [True] * len(range(p * p, 38000, p))
    primes = [p for p in range(2, 38000) if not composite[p]][:4000]
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    with within(1):
        built = WeightedSpectrum(Unit.PLAIN, 1, [(F(1, p), 1) for p in reversed(primes)])
    assert (len(built), built._den) == (4000, prod(primes))
    bits = built._den.bit_length()
    for work in (lambda: built.truncate(F(1, 2)), lambda: built.difference(spec([], 1))):
        with within(1), pytest.raises(BudgetExceeded) as raised:
            work()
        assert str(raised.value) == (
            f"reducing 4000 keys over a {bits}-bit denominator, budget is 5000000"
        )
    # the charge is (64-bit words of den)^2 per key, and below 2^64 no charge is made
    monkeypatch.setenv(BUDGET_ENV_VAR, "1")
    assert _from_int_keys(Unit.PLAIN, 1, [(1, 1), (3, 1)], 2**64 - 1)._den == 2**64 - 1
    with pytest.raises(BudgetExceeded):
        _from_int_keys(Unit.PLAIN, 1, [(1, 1), (3, 1)], 2**64)
    monkeypatch.setenv(BUDGET_ENV_VAR, "2")
    assert _from_int_keys(Unit.PLAIN, 1, [(2, 1), (6, 1)], 2**64)._den == 2**63


def test_union_pointwise_addition():
    left = spec([(0, 1), (1, 2)], 4)
    right = spec([(1, 1), (3, 1)], 4)
    assert left.union(right).entries == ((F(0), 1), (F(1), 3), (F(3), 1))


def test_union_with_empty_is_identity():
    w = spec([(0, 1), (2, 5)], 9)
    assert w.union(spec([], 9)) == w


def test_union_of_two_scalings():
    # 1*A joined with 2*A for A = {0, 1, 4}
    a = spec([(0, 1), (1, 1), (4, 1)], 8)
    merged = a.scale(1).union(a.scale(2))
    assert merged.entries == ((F(0), 2), (F(1), 1), (F(2), 1), (F(4), 1), (F(8), 1))


def test_union_takes_min_cutoff_and_drops_beyond():
    left = spec([(1, 1), (6, 1)], 8)
    right = spec([(1, 1)], 3)
    merged = left.union(right)
    assert merged.cutoff == 3
    assert merged.entries == ((F(1), 2),)


def test_union_requires_matching_units():
    left = spec([(1, 1)], 4, Unit.PLAIN)
    right = spec([(1, 1)], 4, Unit.FOUR_PI_SQUARED)
    with pytest.raises(UnitMismatch):
        left.union(right)


def test_repeated_union_matches_union_at_count_one():
    rng = random.Random(11)
    for _ in range(30):
        a, b = random_spectrum(rng), random_spectrum(rng)
        assert repeated_union(a, 1, b, 1) == a.union(b)


def test_repeated_union_scales_multiplicities():
    w = spec([(2, 1)], 4)
    empty = spec([], 4)
    assert repeated_union(w, 3, empty, 0).entries == ((F(2), 3),)
    assert repeated_union(spec([(1, 1)], 4), 2, spec([(1, 1)], 4), 1).entries == ((F(1), 3),)


def test_repeated_union_rejects_bad_counts():
    w = spec([(2, 1)], 4)
    with pytest.raises(ValueError):
        repeated_union(w, 0, w, 0)
    with pytest.raises(ValueError):
        repeated_union(w, -1, w, 2)


def test_difference_clamps_at_zero():
    assert spec([(1, 3)], 4).difference(spec([(1, 1)], 4)).entries == ((F(1), 2),)
    assert spec([(1, 1)], 4).difference(spec([(1, 5)], 4)).is_empty()
    left = spec([(0, 2), (1, 1), (2, 1)], 4)
    assert left.difference(spec([(0, 2)], 4)).entries == ((F(1), 1), (F(2), 1))


def test_difference_undoes_union():
    rng = random.Random(7)
    for _ in range(40):
        a, b = random_spectrum(rng), random_spectrum(rng)
        assert a.union(b).difference(b) == a.truncate(min(a.cutoff, b.cutoff))


def test_scale_moves_keys_and_cutoff():
    w = spec([(1, 4)], 3)
    assert w.scale(1) == w
    doubled = w.scale(2)
    assert doubled.entries == ((F(2), 4),)
    assert doubled.cutoff == 6
    with pytest.raises(NonpositiveScalar):
        w.scale(0)
    with pytest.raises(NonpositiveScalar):
        w.scale(F(-1, 2))


def test_scale_composes_and_preserves_total():
    rng = random.Random(23)
    for _ in range(30):
        w = random_spectrum(rng)
        r = F(rng.randrange(1, 7), rng.randrange(1, 7))
        s = F(rng.randrange(1, 7), rng.randrange(1, 7))
        assert w.scale(r).scale(s) == w.scale(r * s)
        assert sum(mult for _, mult in w.scale(r)) == sum(mult for _, mult in w)


def test_min_entry():
    assert spec([(0, 2), (3, 1)], 4).min_entry() == (F(0), 2)
    assert spec([(3, 4)], 4).min_entry() == (F(3), 4)
    with pytest.raises(EmptySpectrum):
        spec([], 4).min_entry()


def test_min_of_union_is_min_of_mins():
    rng = random.Random(5)
    for _ in range(40):
        a, b = random_spectrum(rng), random_spectrum(rng)
        merged = a.union(b)
        if merged.is_empty():
            continue
        candidates = [w.min_entry()[0] for w in (a, b) if not w.is_empty()]
        assert merged.min_entry()[0] == min(candidates)


def test_union_commutative_associative():
    rng = random.Random(3)
    for _ in range(30):
        a, b, c = (random_spectrum(rng) for _ in range(3))
        assert a.union(b) == b.union(a)
        assert a.union(b).union(c) == a.union(b.union(c))


def test_truncate_restricts_keys():
    w = spec([(1, 1), (9, 2)], 10)
    cut = w.truncate(2)
    assert cut.entries == ((F(1), 1),)
    assert cut.cutoff == 2
    with pytest.raises(CutoffExceeded):
        w.truncate(11)


def test_with_unit_retags_without_touching_keys():
    w = spec([(1, 2)], 4, Unit.PLAIN)
    retagged = w.with_unit(Unit.FOUR_PI_SQUARED)
    assert retagged.unit is Unit.FOUR_PI_SQUARED
    assert retagged.entries == w.entries
    assert retagged.cutoff == w.cutoff


def test_json_round_trip():
    w = spec([(0, 2), (F(1, 4), 1), (8, 3)], F(17, 2), Unit.FOUR_PI_SQUARED)
    payload = w.to_json_dict()
    assert payload == {
        "unit": "four_pi_squared",
        "cutoff": "17/2",
        "entries": [["0", 2], ["1/4", 1], ["8", 3]],
    }
    assert WeightedSpectrum.from_json_dict(payload) == w


def test_from_json_rejects_malformed_payloads():
    good = spec([(1, 1)], 4).to_json_dict()
    for breakage in (
        lambda d: d.pop("unit"),
        lambda d: d.pop("cutoff"),
        lambda d: d.pop("entries"),
        lambda d: d.update(unit="lightyears"),
        lambda d: d.update(cutoff="1.5"),
        lambda d: d.update(entries=[["1", 0]]),
        lambda d: d.update(entries=[["1", True]]),
        lambda d: d.update(entries=[["1"]]),
        lambda d: d.update(entries=[["1", 1], ["9", 1]]),  # key beyond cutoff
        lambda d: d.update(entries=[["-1", 1]]),
    ):
        payload = dict(good)
        breakage(payload)
        with pytest.raises(ParseError):
            WeightedSpectrum.from_json_dict(payload)


def test_from_json_rejects_repeated_keys():
    good = spec([(1, 1)], 4).to_json_dict()
    for entries in ([["1", 1], ["1", 2]], [["2/4", 1], ["1/2", 1]], [["0", 1], ["3", 1], ["0", 1]]):
        with pytest.raises(ParseError, match="repeated spectrum key"):
            WeightedSpectrum.from_json_dict(dict(good, entries=entries))
