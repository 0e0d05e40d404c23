"""Property tests against independent references.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from hodgespec.isospec import first_divergence, is_isospectral_upto
from hodgespec.lattice import Lattice, brute_force_enumerate, dual, enumerate_norms
from hodgespec.multiset import Unit, WeightedSpectrum
from hodgespec.sphere import SphereOperator, eigenvalue_details, spectrum

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

MAX_KEY = 12
keys = st.fractions(min_value=0, max_value=MAX_KEY, max_denominator=4)
entry_maps = st.dictionaries(keys, st.integers(1, 4), max_size=10)
positive = st.fractions(min_value=F(1, 4), max_value=5, max_denominator=4)


def weighted(entries: dict, cutoff) -> WeightedSpectrum:
    return WeightedSpectrum(Unit.PLAIN, cutoff, tuple(sorted(entries.items())))


@st.composite
def spectrum_pairs(draw):
    """Two spectra that share most entries, with their own cutoffs, and a bound."""
    shared = draw(entry_maps)
    left, right = dict(shared), dict(shared)
    for side in (left, right):
        side.update(draw(st.dictionaries(keys, st.integers(1, 4), max_size=2)))
    left_cutoff = MAX_KEY + draw(st.fractions(0, 3, max_denominator=2))
    right_cutoff = MAX_KEY + draw(st.fractions(0, 3, max_denominator=2))
    bound = draw(st.fractions(0, min(left_cutoff, right_cutoff), max_denominator=4))
    return weighted(left, left_cutoff), weighted(right, right_cutoff), bound


def reference_divergence(left, right, bound):
    left_mult, right_mult = dict(left.entries), dict(right.entries)
    for key in sorted(set(left_mult) | set(right_mult)):
        pair = left_mult.get(key, 0), right_mult.get(key, 0)
        if key <= bound and pair[0] != pair[1]:
            return (key, *pair)
    return None


@PROPERTY
@given(spectrum_pairs())
def test_first_divergence_matches_per_key_reference(pair):
    left, right, bound = pair
    found = first_divergence(left, right, bound)
    assert found == reference_divergence(left, right, bound)
    assert first_divergence(right, left, bound) == (
        None if found is None else (found[0], found[2], found[1])
    )
    assert is_isospectral_upto(left, right, bound) == (found is None)


@st.composite
def small_lattices(draw):
    """Upper-triangular rational bases, n <= 3, so the box scan stays small."""
    n = draw(st.integers(1, 3))
    rows = []
    for i in range(n):
        row = [F(0)] * n
        row[i] = draw(st.fractions(F(1, 2), 2, max_denominator=2))
        for j in range(i + 1, n):
            row[j] = draw(st.fractions(-1, 1, max_denominator=3))
        rows.append(tuple(row))
    return Lattice(tuple(rows))


@PROPERTY
@given(small_lattices(), st.fractions(0, 4, max_denominator=3))
def test_layered_walk_equals_box_scan(lattice, bound):
    data = dual(lattice)
    assert enumerate_norms(data, bound) == brute_force_enumerate(data, bound)


PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@st.composite
def coprime_lattices(draw):
    """Upper-triangular bases, n <= 4, each entry over its own prime denominator.

    Their dual Gram matrices carry large, pairwise coprime denominators in
    both L and D of the LDL^T factorization.
    """
    n = draw(st.integers(1, 4))
    dens = iter(draw(st.permutations(PRIMES)))
    rows = []
    for i in range(n):
        row = [F(0)] * n
        den = next(dens)
        row[i] = F(draw(st.integers(den // 2, 2 * den)), den)
        for j in range(i + 1, n):
            den = next(dens)
            row[j] = F(draw(st.integers(-den, den)), den)
        rows.append(tuple(row))
    return Lattice(tuple(rows))


def norm_scale(data) -> int:
    """The T with T * |l|^2 an integer for every dual vector l, as the walk picks it."""
    n, lower, diag = data.lattice.n, data.ldl_lower, data.ldl_diag
    clear = [math.lcm(*(lower[j][i].denominator for j in range(i + 1, n))) for i in range(n)]
    return math.lcm(*((diag[i] / (clear[i] * clear[i])).denominator for i in range(n)))


@PROPERTY
@given(coprime_lattices(), st.integers(1, 800), st.sampled_from((97, 101, 103)))
def test_integer_walk_equals_box_scan_off_the_integer_grid(lattice, num, den):
    data = dual(lattice)
    scale = norm_scale(data)
    drawn = F(num, den)
    # Half a step of the 1/T grid either side of the largest norm found makes
    # T*bound a non-integer; rounding it the wrong way adds or drops that norm.
    largest = brute_force_enumerate(data, drawn).entries[-1][0]
    half = F(1, 2 * scale)
    for bound in (drawn, largest + half, largest - half) if largest else (drawn, half):
        assert bound == drawn or (scale * bound).denominator != 1
        assert enumerate_norms(data, bound) == brute_force_enumerate(data, bound)


@st.composite
def interior_sphere_operators(draw):
    n = draw(st.integers(2, 6))
    p = draw(st.integers(1, n - 1))
    return SphereOperator(n, p, draw(positive), draw(positive), draw(positive))


@PROPERTY
@given(interior_sphere_operators(), st.fractions(0, 150, max_denominator=3))
def test_series_details_sum_to_merged_spectrum(op, cutoff):
    details = eigenvalue_details(op, cutoff)
    summed = tuple((detail.value, detail.multiplicity) for detail in details)
    assert summed == spectrum(op, cutoff).entries
