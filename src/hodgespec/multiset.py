"""Truncated eigenvalue multisets with exact rational keys.

A :class:`WeightedSpectrum` is a finite map ``eigenvalue key -> multiplicity``
together with a unit tag and a truncation cutoff.  The guarantee a value of
this type carries is: *every* eigenvalue of the underlying operator with key
at most ``cutoff`` appears, with its exact multiplicity.  The cutoff is part
of the value; every binary operation takes the min of the two cutoffs and
drops entries beyond it.

The keys have one representation: int numerators over the least denominator
that makes every key an integer.  Torus and sphere builders hand their int
keys over one common denominator to ``_from_int_keys``, which reduces them by
their gcd with it; the public constructor clears its keys' denominators once,
to their lcm, over which the numerators are already in least terms, and
hands them to the same check-and-store step without a gcd.  Union,
difference and spectrum assembly bring two sides to the lcm of their
denominators and run on integers through one merge, ``_merge``: one list,
one sort on the int key, and a sum only where keys meet; comparison reads
the same int entries as tuples.  ``entries`` builds the Fraction keys only
when it is read.  Every written key, in ``to_json_dict`` and in the CLI's
CSV and norm tables, comes from one int-key writer, ``_lowest_terms``: one
gcd per key, no Fraction.  The CLI charges the decimal writing of every
spectrum it writes before any text is made; ``to_json_dict`` itself
charges nothing.

Unit tags keep flat-torus spectra (keys are eigenvalues divided by 4*pi^2)
from being compared with round-sphere spectra (keys are plain eigenvalues)
by accident.  Cross-unit operations are hard errors, never coercions.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm
from itertools import compress, count, islice
from operator import eq, itemgetter, lt
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CutoffExceeded, EmptySpectrum, NonpositiveScalar, ParseError, UnitMismatch
from .rationals import (
    _EXACT, _charge, _echo, _echo_number, _exact, _int, _nonnegative, _positive, _Record,
    _set_field, format_rational, parse_rational,
)

__all__ = ["Unit", "WeightedSpectrum", "repeated_union"]


class Unit(enum.Enum):
    """Scale tag for eigenvalue keys.

    FOUR_PI_SQUARED: keys are true eigenvalues divided by 4*pi^2 (flat tori,
    where everything is 4*pi^2 times a rational).  PLAIN: keys are the true
    eigenvalues (round spheres with rational squared radius).
    """

    FOUR_PI_SQUARED = "four_pi_squared"
    PLAIN = "plain"


def _multiplicity_error(mult) -> ValueError:
    """The refusal of a multiplicity, echoed with its size capped."""
    shown = _echo_number(mult) if type(mult) is int else _echo(mult)
    return ValueError(f"multiplicity must be a positive int, got {shown}")


class WeightedSpectrum(_Record):
    """Weighted set of eigenvalue keys, truncated at ``cutoff``.

    The keys are held as int numerators over ``_den``, the least denominator
    that makes every key an integer, so the record's equality and hash
    compare values whatever denominator a spectrum was built over.
    ``entries`` builds the (Fraction key, multiplicity) pairs on each read.
    """

    unit: Unit
    cutoff: Fraction
    _den: int
    _ints: tuple[tuple[int, int], ...]

    # -- construction ----------------------------------------------------

    def __init__(self, unit: Unit, cutoff, entries: Iterable[tuple]) -> None:
        """Store (key, multiplicity) pairs, keys given as ints or Fractions.

        The keys' denominators are cleared once, to den, the lcm of the
        denominators, and no gcd is run, as the numerators over den are
        already in least terms.  Proof: for each prime p dividing den, some
        key a/d has p's full power of den in d, as den is the lcm of the d's.
        p divides d, so it does not divide a (a Fraction is in lowest terms),
        nor den / d; so p does not divide that key's numerator a * (den / d).
        Hence gcd(den, *numerators) is 1.
        """
        entries = tuple(entries)
        bad = [key for key, _ in entries if type(key) not in _EXACT]
        if bad:
            raise ValueError(f"eigenvalue key must be an int or a Fraction, got {_echo(bad[0])}")
        den = lcm(*{key.denominator for key, _ in entries})
        # each key becomes an int as wide as den: its 64-bit words are charged first
        _charge(len(entries) * (den.bit_length() >> 6), lambda: f"{_echo_number(len(entries))} "
                f"keys over a {_echo_number(den.bit_length())}-bit common denominator")
        self._store(unit, cutoff, [(key.numerator * (den // key.denominator), mult)
                                   for key, mult in entries], den)

    def _store(self, unit, cutoff, entries, den: int) -> "WeightedSpectrum":
        """Check (int key, multiplicity) pairs standing for ``key / den``, store them, return self.

        The one check-and-store step: the keys must strictly increase, be
        nonnegative and be at most floor(cutoff * den), which says the same
        of ``key / den`` as den > 0; every message names the key as a value.
        The keys are stored as given: den must already be their least
        denominator, gcd(den, *keys) == 1, which every caller ensures.
        """
        if not isinstance(unit, Unit):
            raise TypeError("unit must be a Unit")
        cutoff = _nonnegative(cutoff)
        keys = [key for key, mult in entries if type(mult) is int and mult > 0]  # refuses bools
        if len(keys) < len(entries):
            raise _multiplicity_error(next(m for _, m in entries if type(m) is not int or m < 1))
        if not all(map(lt, keys, keys[1:])):
            raise ValueError("entries must be strictly increasing in key")
        # keys strictly increase, so the first and last ones bound them all
        if keys and keys[0] < 0:
            raise ValueError(f"negative eigenvalue key: {_echo_number(Fraction(keys[0], den))}")
        bound = den * cutoff.numerator // cutoff.denominator
        if keys and keys[-1] > bound:
            first = Fraction(keys[bisect_right(keys, bound)], den)
            raise ValueError(f"key {_echo_number(first)} exceeds cutoff {_echo_number(cutoff)}")
        _set_field(self, "unit", unit)
        _set_field(self, "cutoff", cutoff)
        _set_field(self, "_den", den)
        _set_field(self, "_ints", tuple(entries))
        return self

    @classmethod
    def from_pairs(
        cls,
        unit: Unit,
        cutoff,
        pairs: Iterable[tuple] = (),
    ) -> "WeightedSpectrum":
        """Aggregate (key, multiplicity) pairs: repeated keys add up, zeros are dropped.

        A negative multiplicity is refused before it can hide in a sum; every
        other check is the constructor's.  No package code calls it; it stays
        public because the test suite builds its fixtures with it, in six modules.
        """
        acc: dict[Fraction, int] = {}
        for key, mult in pairs:
            if type(mult) is not int or mult < 0:
                raise _multiplicity_error(mult)
            if mult:
                key = _exact(key, "eigenvalue key")
                acc[key] = acc.get(key, 0) + mult
        return cls(unit, cutoff, tuple(sorted(acc.items())))

    # -- accessors --------------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[Fraction, int], ...]:
        """The (key, multiplicity) pairs in increasing key order, keys as Fractions."""
        return tuple(self)

    def multiplicity(self, key) -> int:
        # the key's numerator over _den, a Fraction that equals no int key when off the grid
        num = _exact(key, "key") * self._den
        i = bisect_left(self._ints, (num,))  # (num,) sorts just before (num, mult)
        if i < len(self._ints) and self._ints[i][0] == num:
            return self._ints[i][1]
        return 0

    def _upto(self, bound: Fraction, den: int) -> Sequence[tuple[int, int]]:
        """The int entries with key <= bound, as numerators over ``den``, a multiple of ``_den``.

        Over ``_den`` itself that is a slice of the stored tuple, copied by
        no comprehension; over another den a list of the rescaled keys.
        """
        # (top + 1,) sorts after every entry (key, mult) with key <= top
        cut = bisect_left(self._ints, (self._den * bound.numerator // bound.denominator + 1,))
        if den == self._den:
            return self._ints[:cut]
        factor = den // self._den
        return [(key * factor, mult) for key, mult in self._ints[:cut]]

    def is_empty(self) -> bool:
        return not self._ints

    def min_entry(self) -> tuple[Fraction, int]:
        """Smallest key with its multiplicity."""
        if not self._ints:
            raise EmptySpectrum("spectrum has no entries")
        return next(iter(self))

    def __iter__(self) -> Iterator[tuple[Fraction, int]]:
        """The (key, multiplicity) pairs, each key built as a Fraction when it is reached."""
        return ((Fraction(key, self._den), mult) for key, mult in self._ints)

    def __len__(self) -> int:
        return len(self._ints)

    # -- algebra ----------------------------------------------------------

    def _require_same_unit(self, other: "WeightedSpectrum") -> None:
        if self.unit is not other.unit:
            raise UnitMismatch(
                f"cannot combine {self.unit.value} spectrum with {other.unit.value} spectrum"
            )

    def union(self, other: "WeightedSpectrum") -> "WeightedSpectrum":
        """Pointwise sum of multiplicities, truncated at the smaller cutoff."""
        return repeated_union(self, 1, other, 1)

    def difference(self, other: "WeightedSpectrum") -> "WeightedSpectrum":
        """Pointwise max(self - other, 0), truncated at the smaller cutoff."""
        self._require_same_unit(other)
        cutoff = min(self.cutoff, other.cutoff)
        den, merged = _merged(self, 1, other, -1, cutoff)
        return _from_int_keys(self.unit, cutoff, [entry for entry in merged if entry[1] > 0], den)

    def scale(self, factor) -> "WeightedSpectrum":
        """Multiply every key (and the cutoff) by a positive rational."""
        (factor,) = _positive(NonpositiveScalar, "scale factor", factor)
        ints = [(key * factor.numerator, mult) for key, mult in self._ints]
        return _from_int_keys(self.unit, self.cutoff * factor, ints, self._den * factor.denominator)

    def truncate(self, bound) -> "WeightedSpectrum":
        """Restrict to keys <= bound; bound must not exceed the cutoff."""
        bound = _exact(bound, "truncation bound")
        if bound > self.cutoff:
            raise CutoffExceeded(
                f"truncation bound {_echo_number(bound)} exceeds cutoff {_echo_number(self.cutoff)}"
            )
        return _from_int_keys(self.unit, bound, self._upto(bound, self._den), self._den)

    def with_unit(self, unit: Unit) -> "WeightedSpectrum":
        """Reinterpret the keys under another unit tag (keys unchanged).

        Deliberate escape hatch for statements that equate a plain-unit
        spectrum with a 4*pi^2-unit one after an irrational radius change;
        never applied implicitly.  No package code calls it; it stays public
        for acceptance criterion 8, which equates S^1 with the circle torus.
        """
        return _from_int_keys(unit, self.cutoff, self._ints, self._den)

    # -- serialization ----------------------------------------------------

    def _lowest_terms(self) -> Iterator[tuple[int, int, int]]:
        """(numerator, denominator, multiplicity) of each entry, its key in lowest terms.

        The one writer of keys: one gcd per key, and no Fraction built.
        """
        for key, mult in self._ints:
            step = gcd(key, self._den)
            yield key // step, self._den // step, mult

    def to_json_dict(self) -> dict:
        return {
            "unit": self.unit.value,
            "cutoff": format_rational(self.cutoff),
            "entries": [[f"{num}/{den}" if den > 1 else str(num), mult]
                        for num, den, mult in self._lowest_terms()],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "WeightedSpectrum":
        try:
            unit = Unit(value := payload["unit"])
        except (KeyError, ValueError, TypeError) as exc:
            # the enum's own ValueError text holds the value's whole repr; echo it cut instead
            reason = f"{_echo(value)} is not a valid Unit" if isinstance(exc, ValueError) else exc
            raise ParseError(f"bad or missing spectrum unit: {reason}") from None
        if "cutoff" not in payload or "entries" not in payload:
            raise ParseError("spectrum payload needs 'unit', 'cutoff' and 'entries'")
        cutoff = parse_rational(str(payload["cutoff"]))
        if not isinstance(payload["entries"], list):
            raise ParseError(f"spectrum entries must be a list: {_echo(payload['entries'])}")
        pairs: dict[Fraction, int] = {}
        for item in payload["entries"]:
            try:
                key_text, mult = item
            except (TypeError, ValueError):
                raise ParseError(f"bad spectrum entry: {_echo(item)}") from None
            key = parse_rational(str(key_text))
            if key in pairs:
                raise ParseError(f"repeated spectrum key {_echo_number(key)}: {_echo(item)}")
            pairs[key] = mult
        try:
            return cls(unit, cutoff, tuple(sorted(pairs.items())))
        except ValueError as exc:
            raise ParseError(str(exc)) from None


def _from_int_keys(unit: Unit, cutoff, entries, den: int) -> WeightedSpectrum:
    """Keys ``key / den`` from (int key, multiplicity) pairs sorted by key.

    The builder behind every spectrum assembled over one common denominator
    (torus norm tables and parts, sphere series, and the algebra above).  It
    reduces the keys and den by their gcd, which is where a spectrum gets
    its least denominator, and hands them to the one check-and-store step
    without building a Fraction; it is the only place that skips
    ``__init__``.  The gcd runs in time quadratic in den's width, so from
    den >= 2^64 on it is charged first, ``(den.bit_length() >> 6)^2`` per key.
    """
    if den >> 64:
        _charge(len(entries) * (den.bit_length() >> 6) ** 2, lambda: f"reducing "
                f"{_echo_number(len(entries))} keys over a {den.bit_length()}-bit denominator")
    step = gcd(den, *map(itemgetter(0), entries))
    entries = [(key // step, mult) for key, mult in entries] if step > 1 else entries
    return object.__new__(WeightedSpectrum)._store(unit, cutoff, entries, den // step)


def _operator_spectrum(unit: Unit, parts, op, cutoff, parts_name: str = ""):
    """The spectrum of a torus or sphere operator ``op`` up to ``cutoff``.

    ``parts(op, cutoff)`` gives ``(den, alpha_part, beta_part)``, key-sorted
    (int key, multiplicity) pairs over den.  With a ``parts_name`` the parts
    are merged, and a generic operator is refused by an error naming it.
    """
    if parts_name and op.generic:
        raise ValueError(f"generic-mode operators have no merged spectrum; use {parts_name}")
    cutoff = _nonnegative(cutoff)
    den, alpha_part, beta_part = parts(op, cutoff)
    if parts_name:
        return _from_int_keys(unit, cutoff, _merge(alpha_part, 1, beta_part, 1), den)
    return tuple(_from_int_keys(unit, cutoff, part, den) for part in (alpha_part, beta_part))


def repeated_union(
    left: WeightedSpectrum, left_count: int, right: WeightedSpectrum, right_count: int
) -> WeightedSpectrum:
    """``left_count`` copies of ``left`` plus ``right_count`` copies of ``right``.

    Counts may be zero (but not both); the cutoff is the min of the two.
    """
    left._require_same_unit(right)
    _int(left_count, "left_count")
    _int(right_count, "right_count")
    if left_count < 0 or right_count < 0 or left_count + right_count < 1:
        raise ValueError("copy counts must be nonnegative and not both zero")
    cutoff = min(left.cutoff, right.cutoff)
    den, merged = _merged(left, left_count, right, right_count, cutoff)
    return _from_int_keys(left.unit, cutoff, merged, den)


def _merged(left, left_count: int, right, right_count: int, cutoff) -> tuple[int, list]:
    """``(den, merged)``: ``_merge`` of both sides' entries up to cutoff, over den, their lcm."""
    den = lcm(left._den, right._den)
    return den, _merge(left._upto(cutoff, den), left_count, right._upto(cutoff, den), right_count)


def _merge(a, a_count: int, b, b_count: int) -> list:
    """Sum two key-sorted (key, multiplicity) sequences, each side times its copy count.

    Keys are int numerators over one common denominator.  Both sides, scaled
    by their counts (a side at count 1 is taken as it is, at count zero it
    adds nothing), go into one list, sorted once on the int key: two
    ascending runs, so one linear timsort merge.  Only when some keys meet
    is each run of equal keys summed into its last entry.  A count of -1
    subtracts that side, so a total may come out zero or negative, and such
    totals stay: ``difference`` keeps the positive ones.
    """
    a, b = (side if copies == 1 else [(key, copies * mult) for key, mult in side] if copies else ()
            for side, copies in ((a, a_count), (b, b_count)))
    merged = [*a, *b]
    merged.sort(key=itemgetter(0))
    if not any(map(eq, map(itemgetter(0), merged), map(itemgetter(0), islice(merged, 1, None)))):
        return merged
    keys = [*map(itemgetter(0), merged)]
    for i in compress(count(), map(eq, keys, islice(keys, 1, None))):
        merged[i + 1] = (keys[i], merged[i][1] + merged[i + 1][1])
        merged[i] = None
    return [*filter(None, merged)]
