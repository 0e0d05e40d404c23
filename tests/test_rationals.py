from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from hodgespec import linalg
from hodgespec.errors import ParseError
from hodgespec.rationals import _echo_number, format_rational, parse_rational, sqrt_floor

from oracles import ldlt, rank


def test_parse_accepts_integers_and_fractions():
    assert parse_rational("3") == 3
    assert parse_rational("-3") == -3
    assert parse_rational("+3/4") == F(3, 4)
    assert parse_rational(" 6/8 ") == F(3, 4)


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "a", "3/", "/4", "3/0", "1/-2", "1 / 2"])
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
            assert _echo_number(value) == f"a {size}-digit integer"
            over = f"a fraction of a {size}-digit over a 2-digit integer"
            assert (_echo_number(F(value, 17)), _echo_number(F(17, value))) == (
                over, f"a fraction of a 2-digit over a {size}-digit integer"
            )


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
