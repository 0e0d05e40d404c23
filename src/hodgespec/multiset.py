"""Truncated eigenvalue multisets with exact rational keys.

A :class:`WeightedSpectrum` is a finite map ``eigenvalue key -> multiplicity``
together with a unit tag and a truncation cutoff.  The guarantee a value of
this type carries is: *every* eigenvalue of the underlying operator with key
at most ``cutoff`` appears, with its exact multiplicity.  The cutoff is part
of the value; every binary operation takes the min of the two cutoffs and
drops entries beyond it.

Unit tags keep flat-torus spectra (keys are eigenvalues divided by 4*pi^2)
from being compared with round-sphere spectra (keys are plain eigenvalues)
by accident.  Cross-unit operations are hard errors, never coercions.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, lt
from typing import Iterable, Iterator, Mapping

from .errors import CutoffExceeded, EmptySpectrum, NonpositiveScalar, ParseError, UnitMismatch
from .rationals import (
    _EXACT, _echo, _echo_number, _exact, _int, _nonnegative, _positive, format_rational,
    parse_rational,
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


def _checked_cutoff(unit, cutoff, entries, den: int | None = None) -> Fraction:
    """Check a spectrum's fields against its entry rules; return the cutoff as a Fraction.

    The entries' keys are the eigenvalue keys themselves, of type exactly int
    or Fraction, or with ``den`` the int numerators of ``key / den``, bounded
    by floor(cutoff * den).  As den > 0, both bounds say the same of the
    values, and every message names the value and the cutoff.
    """
    if not isinstance(unit, Unit):
        raise TypeError("unit must be a Unit")
    cutoff = _nonnegative(cutoff)
    for _, mult in entries:
        if type(mult) is not int or mult < 1:  # refuses bools, unlike isinstance
            raise _multiplicity_error(mult)
    keys = [key for key, _ in entries]
    if den is None and not _EXACT.issuperset(map(type, keys)):
        inexact = next(key for key in keys if type(key) not in _EXACT)
        raise ValueError(f"eigenvalue key must be an int or a Fraction, got {_echo(inexact)}")
    if not all(map(lt, keys, keys[1:])):
        raise ValueError("entries must be strictly increasing in key")
    if not keys:
        return cutoff
    # keys strictly increase, so the first and last ones bound them all
    if keys[0] < 0:
        raise ValueError(f"negative eigenvalue key: {_echo_key(keys[0], den)}")
    bound = cutoff if den is None else den * cutoff.numerator // cutoff.denominator
    if keys[-1] > bound:
        first = keys[bisect_right(keys, bound)]
        raise ValueError(f"key {_echo_key(first, den)} exceeds cutoff {_echo_number(cutoff)}")
    return cutoff


def _echo_key(key, den: int | None) -> str:
    """For a message: the key an entry stands for, ``key / den`` when a den is given."""
    return _echo_number(key if den is None else Fraction(key, den))


@dataclass(frozen=True)
class WeightedSpectrum:
    """Weighted set of eigenvalue keys, truncated at ``cutoff``."""

    unit: Unit
    cutoff: Fraction
    entries: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        entries = tuple(map(tuple, self.entries))
        object.__setattr__(self, "cutoff", _checked_cutoff(self.unit, self.cutoff, entries))
        object.__setattr__(self, "entries", entries)

    # -- construction ----------------------------------------------------

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

    def multiplicity(self, key) -> int:
        key = _exact(key, "key")
        i = bisect_left(self.entries, key, key=itemgetter(0))
        if i < len(self.entries) and self.entries[i][0] == key:
            return self.entries[i][1]
        return 0

    def _entries_upto(self, bound) -> tuple[tuple[Fraction, int], ...]:
        """The entries with key <= bound, cut by bisection."""
        return self.entries[: bisect_right(self.entries, bound, key=itemgetter(0))]

    def is_empty(self) -> bool:
        return not self.entries

    def min_entry(self) -> tuple[Fraction, int]:
        """Smallest key with its multiplicity."""
        if not self.entries:
            raise EmptySpectrum("spectrum has no entries")
        return self.entries[0]

    def __iter__(self) -> Iterator[tuple[Fraction, int]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

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
        merged = _merge(self._entries_upto(cutoff), 1, other._entries_upto(cutoff), -1)
        return WeightedSpectrum(self.unit, cutoff, tuple(entry for entry in merged if entry[1] > 0))

    def scale(self, factor) -> "WeightedSpectrum":
        """Multiply every key (and the cutoff) by a positive rational."""
        (factor,) = _positive(NonpositiveScalar, "scale factor", factor)
        entries = tuple((key * factor, mult) for key, mult in self.entries)
        return WeightedSpectrum(self.unit, self.cutoff * factor, entries)

    def truncate(self, bound) -> "WeightedSpectrum":
        """Restrict to keys <= bound; bound must not exceed the cutoff."""
        bound = _exact(bound, "truncation bound")
        if bound > self.cutoff:
            raise CutoffExceeded(
                f"truncation bound {_echo_number(bound)} exceeds cutoff {_echo_number(self.cutoff)}"
            )
        return WeightedSpectrum(self.unit, bound, self._entries_upto(bound))

    def with_unit(self, unit: Unit) -> "WeightedSpectrum":
        """Reinterpret the keys under another unit tag (keys unchanged).

        Deliberate escape hatch for statements that equate a plain-unit
        spectrum with a 4*pi^2-unit one after an irrational radius change;
        never applied implicitly.  No package code calls it; it stays public
        for acceptance criterion 8, which equates S^1 with the circle torus.
        """
        return WeightedSpectrum(unit, self.cutoff, self.entries)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "unit": self.unit.value,
            "cutoff": format_rational(self.cutoff),
            "entries": [[format_rational(key), mult] for key, mult in self.entries],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "WeightedSpectrum":
        try:
            unit = Unit(payload["unit"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ParseError(f"bad or missing spectrum unit: {exc}") from None
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
                raise ParseError(f"repeated spectrum key {format_rational(key)}: {_echo(item)}")
            pairs[key] = mult
        try:
            return cls(unit, cutoff, tuple(sorted(pairs.items())))
        except ValueError as exc:
            raise ParseError(str(exc)) from None


def _from_int_keys(unit: Unit, cutoff, entries, den: int) -> WeightedSpectrum:
    """Keys ``key / den`` from (int key, multiplicity) pairs sorted by key.

    The builder behind every spectrum assembled over one common denominator
    (torus norm tables and parts, sphere series).  It runs the constructor's
    checks on the int keys, with the same messages, then builds one Fraction
    per entry and the instance without running those checks again on
    Fractions.  It is the only place that skips ``__post_init__``.
    """
    cutoff = _checked_cutoff(unit, cutoff, entries, den)
    spectrum = object.__new__(WeightedSpectrum)
    object.__setattr__(spectrum, "unit", unit)
    object.__setattr__(spectrum, "cutoff", cutoff)
    entries = tuple((Fraction(key, den), mult) for key, mult in entries)
    object.__setattr__(spectrum, "entries", entries)
    return spectrum


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
    merged = _merge(left._entries_upto(cutoff), left_count, right._entries_upto(cutoff), right_count)
    return WeightedSpectrum(left.unit, cutoff, tuple(merged))


def _merge(a, a_count: int, b, b_count: int) -> list:
    """One linear walk over two key-sorted (key, multiplicity) sequences.

    Multiplicities are multiplied by their side's copy count, and a side with
    count zero contributes nothing.  A count of -1 subtracts that side, so a
    total may come out zero or negative; ``difference`` keeps the positive
    ones.  Keys may be Fractions or, for callers that merge over one common
    denominator, plain ints.  Every union, difference and spectrum assembly
    goes through this walk.
    """
    a, b = (a if a_count else ()), (b if b_count else ())
    merged = []
    i = j = 0
    while i < len(a) and j < len(b):
        (left_key, left_mult), (right_key, right_mult) = a[i], b[j]
        if left_key < right_key:
            merged.append((left_key, a_count * left_mult))
            i += 1
        elif right_key < left_key:
            merged.append((right_key, b_count * right_mult))
            j += 1
        else:
            merged.append((left_key, a_count * left_mult + b_count * right_mult))
            i += 1
            j += 1
    merged += ((key, a_count * mult) for key, mult in a[i:])
    merged += ((key, b_count * mult) for key, mult in b[j:])
    return merged
