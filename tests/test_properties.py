"""Property tests against independent references.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
from collections import Counter
from math import comb, factorial
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hodgespec import cli, linalg
from hodgespec.errors import (
    BudgetExceeded, EmptySpectrum, NotInImage, ParseError, SingularBasis, UnrepresentedNorm
)
from hodgespec.isospec import (
    BRANCH_ALPHA_FIRST,
    BRANCH_BETA_FIRST,
    BRANCH_COINCIDENT,
    BRANCH_UNORDERED,
    first_divergence,
    is_isospectral_upto,
    recover_radius,
    recover_sphere_params,
    reconstruct_base,
    recover_torus_params,
)
from hodgespec.lattice import (
    BUDGET_ENV_VAR, Lattice, brute_force_enumerate, count_norm, dual, enumerate_norms
)
from hodgespec.multiset import Unit, WeightedSpectrum, _from_int_keys, _merge, repeated_union
from hodgespec.sphere import (
    Series,
    SphereOperator,
    _series,
    coincidences,
    dim_V,
    dim_W,
    eigenvalue_details,
    harmonic_polynomial_dim,
    spectrum,
    spectrum_parts,
)
from hodgespec.rationals import format_rational, sqrt_floor
from hodgespec.torus import (
    Branch,
    TorusOperator,
    eigenvalue_multiplicity,
    f_spectrum,
    f_spectrum_parts,
    laplace0_spectrum,
)

from oracles import d_plus, e8_plus_e8, exact_visit_count, rank, walk_data

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

MAX_KEY = 12
keys = st.fractions(min_value=0, max_value=MAX_KEY, max_denominator=4)
entry_maps = st.dictionaries(keys, st.integers(1, 4), max_size=10)
positive = st.fractions(min_value=F(1, 4), max_value=5, max_denominator=4)


def weighted(entries: dict, cutoff, unit=Unit.PLAIN) -> WeightedSpectrum:
    return WeightedSpectrum(unit, cutoff, tuple(sorted(entries.items())))


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
# Equal up to the bound over least denominators 2 and 6; 37/3, off the left's grid, lies above it.
@example((weighted({F(1): 2, F(3, 2): 1}, 13), weighted({F(1): 2, F(3, 2): 1, F(37, 3): 1}, 13),
          F(12)))
# The left side is a strict prefix of the right one: multiplicity 0 on the left at 5.
@example((weighted({F(1): 1, F(2): 3}, 12), weighted({F(1): 1, F(2): 3, F(5): 2}, 12), F(10)))
# The last keys agree and their multiplicities differ.
@example((weighted({F(1): 1, F(4): 2}, 12), weighted({F(1): 1, F(4): 3}, 12), F(4)))
def test_first_divergence_matches_per_key_reference(pair):
    left, right, bound = pair
    found = first_divergence(left, right, bound)
    assert found == reference_divergence(left, right, bound)
    assert first_divergence(right, left, bound) == (
        None if found is None else (found[0], found[2], found[1])
    )
    assert is_isospectral_upto(left, right, bound) == (found is None)


# -- spectrum algebra against per-key references ------------------------------


@st.composite
def truncated_spectra(draw):
    """A spectrum whose own cutoff may fall anywhere among the drawn keys."""
    cutoff = draw(st.fractions(0, MAX_KEY + 2, max_denominator=4))
    return weighted({k: m for k, m in draw(entry_maps).items() if k <= cutoff}, cutoff)


copy_counts = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any)


def reference_union(left, left_count, right, right_count):
    cutoff = min(left.cutoff, right.cutoff)
    acc = {}
    for spec, count in ((left, left_count), (right, right_count)):
        for key, mult in spec.entries:
            if count and key <= cutoff:
                acc[key] = acc.get(key, 0) + count * mult
    return weighted(acc, cutoff)


def reference_difference(left, right):
    cutoff = min(left.cutoff, right.cutoff)
    right_mult = dict(right.entries)
    remaining = {key: mult - right_mult.get(key, 0) for key, mult in left.entries if key <= cutoff}
    return weighted({key: mult for key, mult in remaining.items() if mult > 0}, cutoff)


@PROPERTY
@given(truncated_spectra(), truncated_spectra(), copy_counts)
def test_repeated_union_matches_per_key_reference(left, right, counts):
    got = repeated_union(left, counts[0], right, counts[1])
    assert got == reference_union(left, counts[0], right, counts[1])
    assert got == repeated_union(right, counts[1], left, counts[0])
    assert left.union(right) == reference_union(left, 1, right, 1)


@PROPERTY
@given(truncated_spectra(), truncated_spectra())
def test_difference_matches_per_key_reference(left, right):
    assert left.difference(right) == reference_difference(left, right)


sorted_sides = st.dictionaries(st.integers(0, 20), st.integers(1, 4), max_size=8).map(
    lambda side: sorted(side.items())
)
merge_counts = st.sampled_from((-1, 0, 1, 3))


@PROPERTY
@given(sorted_sides, merge_counts, sorted_sides, merge_counts)
@example([(1, 2), (4, 1)], 1, [(1, 2), (5, 1)], -1)  # the total at key 1 is zero
@example([(0, 2), (3, 1), (7, 4)], 1, [(0, 2), (3, 1), (7, 4)], 1)  # every key collides
@example([(0, 2), (3, 1), (7, 4)], 1, [(0, 2), (3, 1), (7, 4)], -1)  # every total is zero
@example([(1, 1), (2, 4), (6, 1)], 3, [(2, 1), (5, 2), (6, 3)], 1)  # shared keys at count 3
@example([(1, 1), (2, 4)], 0, [(2, 1), (5, 2)], 1)  # side a adds nothing
def test_merge_matches_a_counter_reference(a, a_count, b, b_count):
    expected = Counter()
    for side, count in ((a, a_count), (b, b_count)):
        for key, mult in side if count else ():
            expected[key] += count * mult  # item assignment keeps zero and negative totals
    merged = _merge(a, a_count, b, b_count)
    assert merged == sorted(expected.items())
    keys = [key for key, _ in merged]
    assert keys == sorted(set(keys))


# -- the same references over mixed denominators ------------------------------
#
# A spectrum holds int numerators over the lcm of its keys' denominators; these
# draw keys over denominators up to 12, and build some spectra over a multiple
# of that lcm, so every operation meets sides over different denominators.

mixed_keys = st.fractions(min_value=0, max_value=MAX_KEY, max_denominator=12)
OFF_GRID_DENS = (13, 97, 101)  # coprime to every key denominator up to 12


@st.composite
def mixed_spectra(draw):
    """A spectrum over mixed denominators, built publicly or over a multiple of its lcm."""
    cutoff = draw(st.fractions(0, MAX_KEY + 2, max_denominator=12))
    entries = sorted(draw(st.dictionaries(mixed_keys, st.integers(1, 4), max_size=10)).items())
    entries = [(key, mult) for key, mult in entries if key <= cutoff]
    if not draw(st.booleans()):
        return WeightedSpectrum(Unit.PLAIN, cutoff, entries)
    den = math.lcm(1, *(key.denominator for key, _ in entries)) * draw(st.integers(1, 6))
    return _from_int_keys(Unit.PLAIN, cutoff, [(int(key * den), m) for key, m in entries], den)


@PROPERTY
@given(mixed_spectra(), mixed_spectra(), copy_counts, st.fractions(0, 1))
def test_comparison_and_algebra_match_references_over_mixed_denominators(left, right, counts,
                                                                           share):
    bound = min(left.cutoff, right.cutoff) * share
    assert first_divergence(left, right, bound) == reference_divergence(left, right, bound)
    got = repeated_union(left, counts[0], right, counts[1])
    assert got == reference_union(left, counts[0], right, counts[1])
    assert left.difference(right) == reference_difference(left, right)


@PROPERTY
@given(mixed_spectra(), st.fractions(F(1, 12), 12, max_denominator=12), st.fractions(0, 1))
def test_scale_and_truncate_match_references_over_mixed_denominators(spectrum, factor, share):
    scaled = spectrum.scale(factor)
    assert scaled.cutoff == spectrum.cutoff * factor
    assert scaled.entries == tuple((key * factor, mult) for key, mult in spectrum.entries)
    bound = spectrum.cutoff * share
    cut = spectrum.truncate(bound)
    assert cut.cutoff == bound
    assert cut.entries == tuple((key, mult) for key, mult in spectrum.entries if key <= bound)
    assert cut == weighted({key: mult for key, mult in spectrum.entries if key <= bound}, bound)


@PROPERTY
@given(mixed_spectra(), mixed_keys, st.sampled_from(OFF_GRID_DENS))
def test_lookups_match_references_over_mixed_denominators(spectrum, key, off):
    table = dict(spectrum.entries)
    # on the key grid, anywhere, just off each key, and below zero
    for probe in (*table, key, *(k + F(1, off) for k in table), -F(1, off)):
        assert spectrum.multiplicity(probe) == table.get(probe, 0)
    if table:
        assert spectrum.min_entry() == min(table.items())
    else:
        with pytest.raises(EmptySpectrum):
            spectrum.min_entry()
    retagged = spectrum.with_unit(Unit.FOUR_PI_SQUARED)
    assert retagged == WeightedSpectrum(Unit.FOUR_PI_SQUARED, spectrum.cutoff, spectrum.entries)
    assert retagged.with_unit(Unit.PLAIN) == spectrum


def written(spectrum, output_format, table=False) -> str:
    """The CLI's text for ``spectrum`` in ``output_format``; ``table`` as ``enumerate`` writes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write(argparse.Namespace(format=output_format, output=None), spectrum, table)
    return out.getvalue()


@PROPERTY
@given(mixed_spectra())
# key 0, the integer keys 1 and 6 and the keys 1/2 and 2/3, whose numerators over the
# least denominator 6 share a factor with it
@example(WeightedSpectrum(Unit.FOUR_PI_SQUARED, 6, [(0, 1), (F(1, 2), 2), (F(2, 3), 1),
                                                     (1, 3), (6, 10**400)]))
def test_int_writer_matches_the_fraction_path(spectrum):
    # every written key comes from the int numerators; the reference formats Fractions
    entries = [[format_rational(key), mult] for key, mult in spectrum.entries]
    cutoff = format_rational(spectrum.cutoff)
    payload = {"unit": spectrum.unit.value, "cutoff": cutoff, "entries": entries}
    assert spectrum.to_json_dict() == payload
    assert written(spectrum, "json") == json.dumps(payload, indent=2) + "\n"
    table = {"bound": cutoff, "counts": entries}
    assert written(spectrum, "json", table=True) == json.dumps(table, indent=2) + "\n"
    rows = [f"{key.numerator},{key.denominator},{spectrum.unit.value},{mult}"
            for key, mult in spectrum.entries]
    csv = "\n".join(["eigenvalue_num,eigenvalue_den,unit,multiplicity", *rows]) + "\n"
    assert written(spectrum, "csv") == csv


def reference_base(m_spec, alpha, beta, copies_alpha, copies_beta):
    """reconstruct_base one copy at a time: the base multiset, or None where it refuses."""
    guarantee = m_spec.cutoff / max(alpha, beta)
    work, out = dict(m_spec.entries), {}
    while work:
        element = min(work) / min(alpha, beta)
        if element > guarantee:
            break
        for value, copies in ((alpha * element, copies_alpha), (beta * element, copies_beta)):
            if work.get(value, 0) < copies:
                return None
            work[value] -= copies
            if not work[value]:
                del work[value]
        out[element] = out.get(element, 0) + 1
    return weighted(out, guarantee)


BASE_WEIGHTS = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 3),
                (F(1, 2), F(3, 4)), (F(3, 2), 1), (F(2, 3), F(2, 3))]


@st.composite
def near_images(draw):
    """copies_alpha (alpha C) + copies_beta (beta C) up to 8, at times with one multiplicity redrawn.

    The weights may be fractions, and the elements of C have denominators up to 3, so the
    keys' common denominator and the ratio of the weights need not be whole.  A redrawn
    multiplicity may also land on a new key, off the grid of the image.
    """
    alpha, beta = map(F, draw(st.sampled_from(BASE_WEIGHTS)))
    copies = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    elements = st.fractions(min_value=0, max_value=5, max_denominator=3)
    acc = {}
    for k, mult in draw(st.dictionaries(elements, st.integers(1, 9), min_size=1)).items():
        for value, count in ((alpha * k, copies[0]), (beta * k, copies[1])):
            if value <= 8:
                acc[value] = acc.get(value, 0) + count * mult
    assume(acc)
    if draw(st.booleans()):
        at = st.sampled_from(sorted(acc)) | st.fractions(min_value=0, max_value=8, max_denominator=4)
        acc[draw(at)] = draw(st.integers(1, 30))
    return weighted(acc, 8), (alpha, beta), copies


@PROPERTY
@given(near_images())
def test_reconstruct_base_matches_one_copy_at_a_time(case):
    # The counted removal refuses exactly where removing one copy per step does, and
    # otherwise returns the same base.
    m_spec, weights, copies = case
    expected = reference_base(m_spec, *weights, *copies)
    try:
        got = reconstruct_base(m_spec, *weights, *copies)
    except NotInImage:
        got = None
    assert got == expected


@PROPERTY
@given(st.data(), st.integers(1, 4), st.integers(1, 4))
def test_gram_matches_naive_fraction_sums(data, count, dim):
    coordinates = st.one_of(st.integers(-9, 9), st.fractions(-5, 5, max_denominator=12))
    vectors = data.draw(st.lists(st.lists(coordinates, min_size=dim, max_size=dim),
                                 min_size=count, max_size=count))
    naive = tuple(
        tuple(sum((F(a) * F(b) for a, b in zip(u, v)), F(0)) for v in vectors) for u in vectors
    )
    got = linalg.gram(vectors)
    assert got == naive
    assert all(type(entry) is F for row in got for entry in row)


def well_formed_entries(min_size=1):
    """Sorted (key, multiplicity) lists, as a valid spectrum holds them."""
    maps = st.dictionaries(keys, st.integers(1, 4), min_size=min_size, max_size=10)
    return maps.map(lambda entries: sorted(entries.items()))


@PROPERTY
@given(well_formed_entries(min_size=2), st.data())
def test_spectrum_rejects_keys_that_do_not_increase(entries, data):
    i = data.draw(st.integers(0, len(entries) - 2))
    repeat, swap = list(entries), list(entries)
    repeat[i + 1] = (repeat[i][0], repeat[i + 1][1])
    swap[i], swap[i + 1] = swap[i + 1], swap[i]
    for bad in (repeat, swap):
        with pytest.raises(ValueError, match="strictly increasing"):
            WeightedSpectrum(Unit.PLAIN, MAX_KEY, tuple(bad))


@PROPERTY
@given(well_formed_entries(), st.fractions(0, MAX_KEY, max_denominator=4))
def test_spectrum_names_the_first_key_past_its_cutoff(entries, cutoff):
    past = [key for key, _ in entries if key > cutoff]
    assume(past)
    with pytest.raises(ValueError) as raised:
        WeightedSpectrum(Unit.PLAIN, cutoff, tuple(entries))
    assert str(raised.value) == f"key {past[0]} exceeds cutoff {cutoff}"


@PROPERTY
@given(well_formed_entries(), st.data(), st.sampled_from([0, -1, -7, F(2), "3", None, True]))
def test_spectrum_rejects_bad_multiplicities(entries, data, bad):
    i = data.draw(st.integers(0, len(entries) - 1))
    entries[i] = (entries[i][0], bad)
    with pytest.raises(ValueError, match="multiplicity must be a positive int"):
        WeightedSpectrum(Unit.PLAIN, MAX_KEY, tuple(entries))


@PROPERTY
@given(
    st.dictionaries(
        st.fractions(-2, MAX_KEY, max_denominator=4),
        st.integers(1, 4) | st.booleans(),
        max_size=10,
    )
)
def test_json_loader_reads_back_every_constructed_spectrum(entries):
    # The constructor refuses what the loader refuses, with the same message, so no
    # built spectrum fails to load.
    pairs = tuple(sorted(entries.items()))
    payload = {"unit": "plain", "cutoff": str(MAX_KEY), "entries": [[str(k), m] for k, m in pairs]}
    try:
        spec = WeightedSpectrum(Unit.PLAIN, MAX_KEY, pairs)
    except ValueError as exc:
        bools = [m for _, m in pairs if isinstance(m, bool)]
        assert str(exc) == (
            f"multiplicity must be a positive int, got {bools[0]}"
            if bools
            else f"negative eigenvalue key: {min(entries)}"
        )
        with pytest.raises(ParseError) as refused:
            WeightedSpectrum.from_json_dict(payload)
        assert str(refused.value) == str(exc)
        return
    assert spec.to_json_dict() == payload
    assert WeightedSpectrum.from_json_dict(payload) == spec


@st.composite
def small_lattices(draw, dims=st.integers(1, 3)):
    """Upper-triangular rational bases, n <= 3, so the box scan stays small."""
    n = draw(dims)
    rows = []
    for i in range(n):
        row = [F(0)] * n
        row[i] = draw(st.fractions(F(1, 2), 2, max_denominator=2))
        for j in range(i + 1, n):
            row[j] = draw(st.fractions(-1, 1, max_denominator=3))
        rows.append(tuple(row))
    return Lattice(tuple(rows))


# Past n = 3 the walk re-enters levels with three or more levels above the leaf, so a
# shift moved there and not taken back shows.  Every shear of these 4-D and 5-D bases is
# nonzero.  At bound 3/4 each example, D5+ too, has an upper bracket that is empty once
# x = 0 is walked; at bound 2, D5+ tells a walk that leaves level 3's moves in place.
SHEARED = [
    Lattice(((F(1), F(1, 2), F(-1, 3), F(1, 2)), (F(0), F(3, 2), F(1, 3), F(-1, 2)),
             (F(0), F(0), F(1), F(2, 3)), (F(0), F(0), F(0), F(2)))),
    Lattice(((F(1), F(1, 2), F(-1, 3), F(1, 2), F(1, 3)),
             (F(0), F(3, 2), F(1, 3), F(-1, 2), F(-2, 3)),
             (F(0), F(0), F(1), F(2, 3), F(1, 2)), (F(0), F(0), F(0), F(2), F(-1, 3)),
             (F(0), F(0), F(0), F(0), F(3, 2)))),
]


@PROPERTY
@given(small_lattices(), st.fractions(0, 4, max_denominator=3))
@example(SHEARED[0], F(3, 4))
@example(SHEARED[1], F(3, 4))
@example(d_plus(5), F(3, 4))
@example(d_plus(5), F(2))
def test_layered_walk_equals_box_scan(lattice, bound):
    data = dual(lattice)
    assert enumerate_norms(data, bound) == brute_force_enumerate(data, bound)


@st.composite
def unimodular_changes(draw, lattice):
    """The lattice on another basis: 3n row operations b_i += r b_j, |r| <= 3, then sign flips."""
    rows = [list(row) for row in lattice.basis]
    n = len(rows)
    for _ in range(3 * n):
        i, j = draw(st.permutations(range(n)))[:2]
        r = draw(st.integers(-3, 3))
        rows[i] = [x + r * y for x, y in zip(rows[i], rows[j])]
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return Lattice(tuple(tuple(sign * x for x in row) for sign, row in zip(signs, rows)))


@PROPERTY
@given(small_lattices(st.integers(2, 4)), st.data(), st.fractions(0, 3, max_denominator=3))
def test_norm_table_ignores_a_unimodular_change_of_basis(lattice, data, bound):
    # a unimodular change of basis keeps the lattice, so its dual and every dual norm
    other = data.draw(unimodular_changes(lattice))
    assert enumerate_norms(dual(other), bound) == enumerate_norms(dual(lattice), bound)


# In one dimension the whole walk is the one level whose bracket is -high..high.
LINES = [Lattice(((F(1),),)), Lattice(((F(2, 3),),))]


@PROPERTY
@given(small_lattices(), st.fractions(0, 4, max_denominator=3))
@example(LINES[0], F(9))
@example(LINES[1], F(0))
@example(SHEARED[0], F(3, 4))
@example(SHEARED[1], F(3, 4))
@example(d_plus(5), F(3, 4))
@example(d_plus(5), F(2))
def test_half_walk_charges_the_visits_of_the_full_walk(lattice, bound):
    # The walk visits one of each +-l but charges the mirror's brackets too, so
    # its refusal falls exactly past the full walk's candidate count.
    data = dual(lattice)
    visits = exact_visit_count(data, bound)
    want = brute_force_enumerate(data, bound)
    queries = (lambda: enumerate_norms(data, bound), lambda: count_norm(data, bound))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(BUDGET_ENV_VAR, str(visits))
        assert enumerate_norms(data, bound) == want
        assert count_norm(data, bound) == want.multiplicity(bound)
        if visits == 1:  # the zero vector alone; a budget must be positive
            return
        patch.setenv(BUDGET_ENV_VAR, str(visits - 1))
        for query in queries:
            with pytest.raises(BudgetExceeded, match=f"budget of {visits - 1} candidate visits"):
                query()


@PROPERTY
@given(small_lattices(), st.fractions(0, 4, max_denominator=3))
@example(LINES[0], F(9))
@example(LINES[1], F(4))
def test_key_counts_equal_the_table_counts(lattice, bound):
    # Key mode multiplies its hits as table mode multiplies its leaves.
    data = dual(lattice)
    table = enumerate_norms(data, bound)
    for norm, count in table.entries:
        assert count_norm(data, norm) == count
    assert count_norm(data, 0) == 1
    # Half a step of the walk's key grid 1/T past a key is no key.
    assert count_norm(data, table.entries[-1][0] + F(1, 2 * data.scale)) == 0


@PROPERTY
@given(small_lattices(), st.data(), positive, positive, st.fractions(0, 4, max_denominator=3))
def test_torus_parts_scale_the_norm_table(lattice, data, alpha, beta, cutoff):
    op = TorusOperator(lattice, data.draw(st.integers(0, lattice.n)), alpha, beta, generic=True)
    table = enumerate_norms(dual(lattice), cutoff / min(alpha, beta))
    parts = f_spectrum_parts(op, cutoff)
    for part, factor, copies in zip(parts, (alpha, beta), (op.alpha_copies, op.beta_copies)):
        expected = {factor * norm: copies * count for norm, count in table.entries}
        kept = {key: mult for key, mult in expected.items() if copies and key <= cutoff}
        assert part == weighted(kept, cutoff, Unit.FOUR_PI_SQUARED)


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


@PROPERTY
@given(coprime_lattices(), st.integers(1, 800), st.sampled_from((97, 101, 103)))
def test_integer_walk_equals_box_scan_off_the_integer_grid(lattice, num, den):
    data = dual(lattice)
    scale = data.scale  # T * |l|^2 is an integer for every dual vector l
    drawn = F(num, den)
    # Half a step of the 1/T grid either side of the largest norm found makes
    # T*bound a non-integer; rounding it the wrong way adds or drops that norm.
    largest = brute_force_enumerate(data, drawn).entries[-1][0]
    half = F(1, 2 * scale)
    for bound in (drawn, largest + half, largest - half) if largest else (drawn, half):
        assert bound == drawn or (scale * bound).denominator != 1
        assert enumerate_norms(data, bound) == brute_force_enumerate(data, bound)


# -- integer norm tables behind queries, spectra and the box scan -------------

# Denominators that never divide a walk scale drawn from coprime_lattices:
# its prime factors come from the basis entries, all below 97.
OFF_GRID = (97, 101, 103)


def positive_keys(data, count: int) -> list:
    """The first ``count`` positive norms of the dual lattice, in order."""
    bound = F(1)
    while True:
        found = [key for key, _ in enumerate_norms(data, bound).entries if key > 0]
        if len(found) >= count:
            return found[:count]
        bound *= 2


query_weights = st.fractions(F(1, 2), 2, max_denominator=7)


class Draws:
    """Stands in for ``st.data()`` in an ``@example``: each draw returns the next given value."""

    def __init__(self, *values):
        self.given, self.values = values, iter(values)

    def __repr__(self) -> str:
        return f"Draws{self.given!r}"

    def draw(self, strategy, label=None):
        return next(self.values)


# 4 |l|^2 = 9 |x|^2: the first positive norms are 9/4, 9/2, 27/4 and 9, on the grid 1/T = 1/4.
CUBE_2_3 = Lattice(tuple(tuple(F(2, 3) if r == c else F(0) for c in range(3)) for r in range(3)))
# Numerators of 40 digits, coprime to each other.
WIDE = (F(10**39 + 3, 10**39), F(10**39 + 1, 10**39))


@PROPERTY
@given(coprime_lattices(), st.data())
# Draws, for a "key" query: i, j, alpha, a drawn weight, beta, kind, p.  The
# cross norm 9 * (9/8) / (3/2) = 27/4 is a key, its int pair (162, 24) only
# after cancellation; 9/4 * 21/10 and 9/4 * 10/21 lie off the grid; and the
# wide weights make 79-digit pairs whose keys are off the grid.
@example(CUBE_2_3, Draws(3, 2, F(3, 2), F(1), F(9, 8), "key", 1))
@example(CUBE_2_3, Draws(0, 1, F(3, 2), F(5, 7), F(5, 7), "key", 2))
@example(CUBE_2_3, Draws(1, 0, *WIDE, WIDE[1], "key", 1))
def test_queries_read_the_enumerated_table(lattice, data):
    dual_data = dual(lattice)
    found = positive_keys(dual_data, 4)
    i, j = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    alpha = data.draw(query_weights)
    # beta/alpha = found[j]/found[i] sends the key found[i] onto the key found[j],
    # so the cross count of a beta query at found[i] is not zero.
    beta = data.draw(st.sampled_from((alpha * found[j] / found[i], data.draw(query_weights))))
    # A table key, a norm strictly between two keys, or one off the 1/T grid.
    kind = data.draw(st.sampled_from(("key", "between", "off-grid")))
    if kind == "key":
        norm = found[i]
    elif kind == "between":
        norm = ((found[i - 1] if i else 0) + found[i]) / 2
    else:
        den, scale = data.draw(st.sampled_from(OFF_GRID)), dual_data.scale
        if data.draw(st.booleans()):
            norm = F(data.draw(st.integers(1, int(found[-1] * den)).filter(lambda k: k % den)), den)
        else:
            # Within one 1/T step of a key, where rounding T*norm would land on it.
            norm = found[i] + F(data.draw(st.integers(1 - den, den - 1).filter(bool)), den * scale)
        assert (scale * norm).denominator != 1
    p = data.draw(st.integers(0, lattice.n))
    table = enumerate_norms(dual_data, norm * max(1, alpha / beta, beta / alpha))
    assert count_norm(dual_data, norm) == table.multiplicity(norm)
    for generic, branch in itertools.product((False, True), Branch):
        op = TorusOperator(lattice, p, alpha, beta, generic=generic)
        own, other = (alpha, beta) if branch is Branch.ALPHA else (beta, alpha)
        own_copies, other_copies = (
            (op.alpha_copies, op.beta_copies) if branch is Branch.ALPHA
            else (op.beta_copies, op.alpha_copies)
        )
        if table.multiplicity(norm) == 0:
            with pytest.raises(UnrepresentedNorm):
                eigenvalue_multiplicity(op, norm, branch)
            continue
        # The other family's cross norm norm*own/other lies above or below norm.
        expected = own_copies * table.multiplicity(norm)
        if not generic:
            expected += other_copies * table.multiplicity(norm * own / other)
        assert eigenvalue_multiplicity(op, norm, branch) == expected


@st.composite
def torus_weights(draw):
    """Equal weights, weights over coprime denominators, or two drawn ones."""
    kind = draw(st.sampled_from(("equal", "coprime", "drawn")))
    if kind == "equal":
        alpha = draw(positive)
        return alpha, alpha
    if kind == "coprime":
        return draw(st.permutations((F(7, 6), F(5, 4))))
    return draw(positive), draw(positive)


@PROPERTY
@given(small_lattices(), st.data(), torus_weights())
def test_merged_spectrum_is_the_union_of_its_parts(lattice, data, weights):
    alpha, beta = weights
    op = TorusOperator(lattice, data.draw(st.integers(0, lattice.n)), alpha, beta)
    key = data.draw(st.sampled_from(positive_keys(dual(lattice), 3)))
    # Half a step of the keys' grid 1/(T*a'*b') either side of a key of the
    # larger weight's part, which the walk to cutoff/min(alpha, beta) reaches.
    step = F(1, dual(lattice).scale * alpha.denominator * beta.denominator)
    near = max(alpha, beta) * key
    cutoffs = {
        "zero": (F(0),),
        "on-key": (data.draw(st.sampled_from((alpha, beta))) * key,),
        "near-key": (near - step / 2, near + step / 2),
        "drawn": (data.draw(st.fractions(0, 4, max_denominator=5)),),
    }[data.draw(st.sampled_from(("zero", "on-key", "near-key", "drawn")))]
    table = enumerate_norms(dual(lattice), max(cutoffs) / min(alpha, beta))
    for cutoff in cutoffs:
        merged = f_spectrum(op, cutoff)
        assert merged == WeightedSpectrum.union(*f_spectrum_parts(op, cutoff))
        # Per key: alpha*norm with alpha_copies copies plus beta*norm with beta_copies.
        expected = {}
        for factor, copies in ((alpha, op.alpha_copies), (beta, op.beta_copies)):
            for norm, count in table.entries:
                if copies and factor * norm <= cutoff:
                    expected[factor * norm] = expected.get(factor * norm, 0) + copies * count
        assert merged == weighted(expected, cutoff, Unit.FOUR_PI_SQUARED)


def rebuilt(spectrum: WeightedSpectrum) -> WeightedSpectrum:
    """The spectrum passed again through the public constructor and its Fraction checks."""
    assert type(spectrum.cutoff) is F
    assert all(type(key) is F and type(mult) is int for key, mult in spectrum.entries)
    return WeightedSpectrum(spectrum.unit, spectrum.cutoff, spectrum.entries)


@PROPERTY
@given(small_lattices(), st.data(), torus_weights(), st.fractions(0, 4, max_denominator=3))
def test_torus_builders_pass_the_public_constructor(lattice, data, weights, cutoff):
    table = dual(lattice)
    op = TorusOperator(lattice, data.draw(st.integers(0, lattice.n)), *weights)
    built = [
        enumerate_norms(table, cutoff),
        brute_force_enumerate(table, cutoff),
        laplace0_spectrum(lattice, cutoff),
        f_spectrum(op, cutoff),
        *f_spectrum_parts(op, cutoff),
    ]
    for spectrum in built:
        assert rebuilt(spectrum) == spectrum


def fraction_box_scan(data, bound) -> WeightedSpectrum:
    """The box scan with a Fraction recheck of every cell, cell by cell."""
    n = data.lattice.n
    radii = [sqrt_floor(bound * data.gram[i][i]) for i in range(n)]
    counts = {}
    for coords in itertools.product(*(range(-r, r + 1) for r in radii)):
        norm = F(0)
        for i in range(n):
            if coords[i] == 0:
                continue
            row = data.dual_gram[i]
            norm += row[i] * coords[i] * coords[i]
            for j in range(i + 1, n):
                if coords[j] != 0:
                    norm += 2 * row[j] * coords[i] * coords[j]
        if norm <= bound:
            counts[norm] = counts.get(norm, 0) + 1
    return weighted(counts, bound, Unit.FOUR_PI_SQUARED)


@settings(PROPERTY, max_examples=30)
@given(coprime_lattices(), st.integers(1, 300), st.sampled_from(OFF_GRID))
# n = 1: every cell is the empty prefix and a last coordinate.
@example(Lattice(((F(3, 2),),)), 300, 97)
# Every bound below 477/49, the last dual basis vector's norm: radii 12 and 0.
@example(Lattice(((F(7), F(2)), (F(0), F(1, 3)))), 300, 101)
# At bounds near 1/2 the radii are 1, 1, 1, 0: the widest coordinate is not the last.
@example(Lattice(((F(4, 3), F(1, 2), F(-1, 3), F(1, 4)), (F(0), F(3, 2), F(1, 5), F(-1, 2)),
                  (F(0), F(0), F(5, 4), F(2, 3)), (F(0), F(0), F(0), F(7, 6)))), 51, 101)
def test_integer_box_scan_equals_fraction_recheck(lattice, num, den):
    data = dual(lattice)
    # The box scan's own integer scale: the lcm of the dual Gram denominators.
    scale = math.lcm(*(x.denominator for row in data.dual_gram for x in row))
    drawn = F(num, den)
    largest = fraction_box_scan(data, drawn).entries[-1][0]
    half = F(1, 2 * scale)
    for bound in (drawn, largest + half, largest - half) if largest else (drawn, half):
        assert (scale * bound).denominator != 1
        assert brute_force_enumerate(data, bound) == fraction_box_scan(data, bound)


@PROPERTY
@given(small_lattices(), st.data(), positive, positive, st.fractions(0, 3, max_denominator=3))
def test_torus_spectrum_follows_metric_scaling(lattice, data, alpha, beta, cutoff):
    factor = data.draw(
        st.fractions(-3, 3, max_denominator=5).filter(bool) | st.sampled_from((F(-1), F(7, 5)))
    )
    p = data.draw(st.integers(0, lattice.n))
    squared = factor * factor
    moved = TorusOperator(lattice.scaled(factor), p, squared * alpha, squared * beta)
    assert f_spectrum(moved, cutoff) == f_spectrum(TorusOperator(lattice, p, alpha, beta), cutoff)


@st.composite
def rational_bases(draw):
    """Square rational matrices, n <= 6: triangular or dense, rows and columns shuffled."""
    n = draw(st.integers(1, 6))
    entries = st.fractions(-3, 3, max_denominator=3)
    if draw(st.booleans()):
        pivots = st.fractions(F(1, 3), 3, max_denominator=3)
        rows = [
            [F(0)] * i + [draw(pivots) * draw(st.sampled_from((1, -1)))]
            + [draw(entries) for _ in range(i + 1, n)]
            for i in range(n)
        ]
    else:
        rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    order, coords = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    return tuple(tuple(rows[i][j] for j in coords) for i in order)


@PROPERTY
@given(rational_bases())
@example(e8_plus_e8().basis)
@example(d_plus(16).basis)
def test_dual_factor_is_the_ldlt_of_the_inverse_gram(basis):
    assume(rank([dict(enumerate(row)) for row in basis]) == len(basis))
    data = dual(Lattice(basis))
    n = len(basis)
    product = [
        [sum(data.gram[i][k] * data.dual_gram[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]
    # Clearing the LDL^T of the dual Gram matrix is the reference route to the walk data.
    walk = (data.clear, data.terms, data.weights, data.scale)
    assert walk == walk_data(data.dual_gram)
    assert all(type(x) is int for x in (*data.clear, *data.weights, data.scale))
    assert all(type(x) is F for row in data.gram + data.dual_gram for x in row)
    assert all(type(j) is type(t) is int for terms in data.terms for j, t in terms)


@PROPERTY
@given(rational_bases(), st.data())
def test_rank_deficient_basis_is_singular(basis, data):
    n = len(basis)
    drop = data.draw(st.integers(0, n - 1))
    weights = [data.draw(st.fractions(-2, 2, max_denominator=3)) for _ in range(n)]
    # Row `drop` becomes a combination of the other rows (the zero row when n = 1).
    combination = tuple(
        sum((w * row[j] for i, (w, row) in enumerate(zip(weights, basis)) if i != drop), F(0))
        for j in range(n)
    )
    rows = basis[:drop] + (combination,) + basis[drop + 1 :]
    with pytest.raises(SingularBasis):
        dual(Lattice(rows))


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


def factorial_dim_V(n, p, k):
    if k == 0:
        return 0
    top = factorial(n + k - 1) * (n + 2 * k - 1)
    bottom = factorial(p) * factorial(k - 1) * factorial(n - p - 1) * (n + k - p - 1) * (k + p)
    assert top % bottom == 0
    return top // bottom


def factorial_dim_W(n, p, k):
    top = factorial(n + k) * (n + 2 * k + 1)
    bottom = factorial(p - 1) * factorial(k) * factorial(n - p) * (n + k - p + 1) * (k + p)
    assert top % bottom == 0
    return top // bottom


def harmonic_dim(nvars, k):
    return comb(nvars + k - 1, k) - (comb(nvars + k - 3, k - 2) if k >= 2 else 0)


def stepped_dims(formula, last):
    """The dimensions that ``terms`` steps, from the series' start up to term ``last``.

    On the way it asserts that the terms are k = start..last, each with the
    key scale (j+q)(j+n-q+1) over the scale's denominator, which is 0 at the
    scalar series' first term, j = -1.
    """
    den, n, q, shift = formula.scale.denominator, formula.n, formula.q, formula.shift
    start, pairs = formula.terms(formula.value(last), den)
    terms = [(k, key, dim) for k, (key, dim) in enumerate(pairs, start)]
    assert [k for k, _, _ in terms] == list(range(formula.start, last + 1))
    assert [key for _, key, _ in terms] == [
        formula.scale * (k - shift + q) * (k - shift + n - q + 1) * den for k, _, _ in terms
    ]
    return [dim for _, _, dim in terms]


@pytest.mark.parametrize("n", range(1, 17))
def test_stepped_dimensions_equal_the_closed_forms(n):
    last = 300
    for p in range(1, n):
        lam = stepped_dims(_series(Series.LAMBDA, n, p, 1, 1), last)
        mu = stepped_dims(_series(Series.MU, n, p, 1, 1), last)
        assert lam == [dim_V(n, p, k) for k in range(1, last + 1)]
        assert mu == [dim_W(n, p, k) for k in range(last + 1)]
        # dim_V and dim_W read the same steps, so the factorials are the independent check
        assert lam == [factorial_dim_V(n, p, k) for k in range(1, last + 1)]
        assert mu == [factorial_dim_W(n, p, k) for k in range(last + 1)]
    # p = 0 and p = n: the scalar series, S^1 included (1, 2, 2, ...)
    for series in Series:
        scalar = stepped_dims(_series(series, n, 0 if series is Series.LAMBDA else n, 2, 3), last)
        assert scalar == [harmonic_polynomial_dim(n + 1, k) for k in range(last + 1)]
        assert scalar == [harmonic_dim(n + 1, k) for k in range(last + 1)]
    assert [harmonic_polynomial_dim(1, k) for k in range(5)] == [1, 1, 0, 0, 0]


def reference_series(op, cutoff):
    """{series: [(k, value, dim)]} from Fraction values scale * (k+a)(k+b)."""
    n, p, r2 = op.n, op.p, op.r_squared
    if p == 0:
        plan = {Series.LAMBDA: (op.beta, 0, 0, n - 1, lambda k: harmonic_dim(n + 1, k))}
    elif p == n:
        plan = {Series.MU: (op.alpha, 0, 0, n - 1, lambda k: harmonic_dim(n + 1, k))}
    else:
        plan = {
            Series.LAMBDA: (op.beta, 1, p, n - p - 1, lambda k: factorial_dim_V(n, p, k)),
            Series.MU: (op.alpha, 0, p, n - p + 1, lambda k: factorial_dim_W(n, p, k)),
        }
    found = {}
    for series, (coefficient, k, a, b, dim) in plan.items():
        terms = found[series] = []
        while (k + a) * (k + b) * coefficient / r2 <= cutoff:
            terms.append((k, (k + a) * (k + b) * coefficient / r2, dim(k)))
            k += 1
    return found


def reference_parts(op, cutoff):
    found = reference_series(op, cutoff)
    alpha, beta = (
        WeightedSpectrum.from_pairs(Unit.PLAIN, cutoff, [(v, d) for _, v, d in found.get(side, ())])
        for side in (Series.MU, Series.LAMBDA)
    )
    if op.p == op.n:
        beta = WeightedSpectrum(Unit.PLAIN, cutoff, ((F(0), 1),))
        alpha = alpha.difference(beta)
    return alpha, beta


@st.composite
def coprime_sphere_operators(draw, generic=st.booleans()):
    """Operators whose alpha, beta and r^2 have the coprime denominators 7, 11, 13.

    So the two series' scales have different denominators and their keys
    meet over the lcm.  Half the time beta is alpha times a small ratio
    instead, which makes the series coincide.
    """
    n = draw(st.integers(1, 7))
    interior = st.integers(1, n - 1) if n > 1 and draw(st.booleans()) else st.integers(0, n)
    p = draw(interior)
    dens = draw(st.permutations((7, 11, 13)))
    alpha, beta, r_squared = (F(draw(st.integers(1, 2 * d)), d) for d in dens)
    if draw(st.booleans()):
        beta = alpha * draw(st.sampled_from((F(1), F(2), F(1, 2), F(4, 3))))
    return SphereOperator(n, p, alpha, beta, r_squared, generic=draw(generic))


def sphere_cutoffs(op):
    """Cutoffs that reach about sqrt(200) terms of the slower series."""
    return st.fractions(0, 200, max_denominator=13).map(
        lambda reach: reach * max(op.alpha, op.beta) / op.r_squared
    )


@PROPERTY
@given(coprime_sphere_operators(), st.data())
def test_integer_series_match_fraction_reference(op, data):
    cutoff = data.draw(sphere_cutoffs(op))
    alpha_part, beta_part = reference_parts(op, cutoff)
    assert spectrum_parts(op, cutoff) == (alpha_part, beta_part)
    if op.generic:
        assert coincidences(op, cutoff) == ()
        for merged_only in (spectrum, eigenvalue_details):
            with pytest.raises(ValueError):
                merged_only(op, cutoff)
        return
    assert spectrum(op, cutoff) == repeated_union(alpha_part, 1, beta_part, 1)
    found = reference_series(op, cutoff)
    details = {}
    for series, terms in found.items():
        for k, value, dim in terms:
            details.setdefault(value, []).append((series, k, dim))
    got = [
        (detail.value, [(term.series, term.k, term.dim) for term in detail.terms])
        for detail in eigenvalue_details(op, cutoff)
    ]
    assert got == sorted(details.items())
    if op.duality_extension:
        assert coincidences(op, cutoff) == ()
    else:
        mu_at = {value: k for k, value, _ in found[Series.MU]}
        want = tuple((k, mu_at[value]) for k, value, _ in found[Series.LAMBDA] if value in mu_at)
        assert coincidences(op, cutoff) == want


@PROPERTY
@given(coprime_sphere_operators(), st.data())
def test_sphere_builders_pass_the_public_constructor(op, data):
    cutoff = data.draw(sphere_cutoffs(op))
    built = list(spectrum_parts(op, cutoff))
    if not op.generic:
        built.append(spectrum(op, cutoff))
    if not op.duality_extension:
        built += (_series(side, op.n, op.p, op.alpha, op.r_squared).spectrum(cutoff)
                  for side in Series)
    for spectrum_ in built:
        assert rebuilt(spectrum_) == spectrum_


@PROPERTY
@given(
    coprime_sphere_operators(generic=st.just(False)),
    st.fractions(-3, 3, max_denominator=5).filter(bool) | st.sampled_from((F(-1), F(7, 5))),
    st.data(),
)
def test_sphere_spectrum_follows_metric_scaling(op, factor, data):
    cutoff = data.draw(sphere_cutoffs(op))
    squared = factor * factor
    moved = SphereOperator(
        op.n, op.p, squared * op.alpha, squared * op.beta, squared * op.r_squared
    )
    assert spectrum(moved, cutoff) == spectrum(op, cutoff)
    assert spectrum_parts(moved, cutoff) == spectrum_parts(op, cutoff)


# -- recovery round trips and duality ----------------------------------------

# beta = alpha * tie * spread**order: the alpha series comes first (1), the
# beta series first (-1), or both together (0); n = 2p is drawn under each.
ORDERS = {"alpha-first": 1, "beta-first": -1, "together": 0}
ROUND_TRIP = settings(PROPERTY, max_examples=20)


def drawn_pair(draw, tie, order):
    alpha = draw(st.fractions(F(1, 2), 3, max_denominator=2))
    spread = draw(st.fractions(F(4, 3), 3, max_denominator=3))
    return alpha, alpha * tie * spread**order


def expected_recovery(alpha, beta, order, half):
    if half:
        return "unordered", tuple(sorted((alpha, beta))), (BRANCH_UNORDERED,)
    branch = {1: BRANCH_ALPHA_FIRST, -1: BRANCH_BETA_FIRST, 0: BRANCH_COINCIDENT}[order]
    return "ordered", (alpha, beta), (branch,)


@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS)
@ROUND_TRIP
@given(data=st.data())
def test_torus_recovery_round_trip(order, data):
    lattice = data.draw(small_lattices(st.integers(2, 3)))
    n = lattice.n
    p = data.draw(st.integers(1, n - 1))
    alpha, beta = drawn_pair(data.draw, 1, order)
    reach = min(row[i] for i, row in enumerate(dual(lattice).dual_gram))  # >= first norm
    high, low = max(alpha, beta), min(alpha, beta)
    m_spec = f_spectrum(TorusOperator(lattice, p, alpha, beta), high * reach)
    base = laplace0_spectrum(lattice, high / low * reach)
    got = recover_torus_params(m_spec, base, n, p)
    assert (got.kind, got.values, got.branch_trace) == expected_recovery(
        alpha, beta, order, n == 2 * p
    )


@PROPERTY
@given(
    small_lattices(st.sampled_from((2, 4))), positive, positive, st.sampled_from((2, 3)), st.data()
)
def test_torus_spectrum_fixes_the_ratio_only_up_to_squares(lattice, alpha, beta, c, data):
    # Why torus recovery needs the scalar spectrum: at n = 2p the p-form spectrum
    # is also k copies of some C and k of c^2 C, with C as even as a scalar spectrum.
    p = lattice.n // 2
    k = comb(lattice.n - 1, p)
    reach = min(row[i] for i, row in enumerate(dual(lattice).dual_gram))  # >= first norm
    cutoff = c**2 * min(alpha, beta) * reach * data.draw(st.fractions(1, 3, max_denominator=3))
    m_spec = f_spectrum(TorusOperator(lattice, p, alpha, beta), cutoff)
    found = reconstruct_base(m_spec, 1, c**2, k, k)  # never NotInImage
    assert len(found.entries) >= 2
    assert all(mult % 2 == 0 for key, mult in found.entries if key > 0)


def drawn_sphere(draw, order):
    n = draw(st.integers(2, 6))
    p = draw(st.integers(1, n - 1))
    alpha, beta = drawn_pair(draw, F(p * (n - p + 1), (p + 1) * (n - p)), order)
    return SphereOperator(n, p, alpha, beta, draw(positive))


def first_keys(op):
    """The first alpha-series and beta-series keys, read off the closed forms."""
    n, p, r_squared = op.n, op.p, op.r_squared
    return op.alpha * p * (n - p + 1) / r_squared, op.beta * (p + 1) * (n - p) / r_squared


@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS)
@ROUND_TRIP
@given(data=st.data())
def test_sphere_recovery_round_trip(order, data):
    op = drawn_sphere(data.draw, order)
    got = recover_sphere_params(spectrum(op, max(first_keys(op))), op.n, op.p, op.r_squared)
    assert (got.kind, got.values, got.branch_trace) == expected_recovery(
        op.alpha, op.beta, order, op.n == 2 * op.p
    )


@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS)
@ROUND_TRIP
@given(data=st.data())
def test_radius_round_trip(order, data):
    op = drawn_sphere(data.draw, order)
    smallest = spectrum(op, min(first_keys(op))).min_entry()[0]
    assert recover_radius(op.alpha, op.beta, op.n, op.p, smallest) == op.r_squared


@PROPERTY
@given(
    st.integers(1, 6), st.data(), positive, positive, positive, st.fractions(0, 60, max_denominator=3)
)
def test_sphere_duality_swaps_parameters(n, data, alpha, beta, r_squared, cutoff):
    p = data.draw(st.integers(0, n))
    left = SphereOperator(n, p, alpha, beta, r_squared)
    right = SphereOperator(n, n - p, beta, alpha, r_squared)
    assert spectrum(left, cutoff) == spectrum(right, cutoff)


@PROPERTY
@given(small_lattices(), st.data(), positive, positive, st.fractions(0, 3, max_denominator=3))
def test_torus_duality_swaps_parameters(lattice, data, alpha, beta, cutoff):
    p = data.draw(st.integers(0, lattice.n))
    left = TorusOperator(lattice, p, alpha, beta)
    right = TorusOperator(lattice, lattice.n - p, beta, alpha)
    assert f_spectrum(left, cutoff) == f_spectrum(right, cutoff)
