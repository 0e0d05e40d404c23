"""Strict rational parsing, canonical formatting, exact integer square roots,
and the rules every public entry point reads its numbers through.

The wire format for rationals is ``"num/den"`` in lowest terms, or ``"n"``
for integers.  Decimal and float notation is rejected on purpose: every
number in this package is exact.  The library itself takes numbers only as
``int`` or ``Fraction``: ``_exact`` refuses a float, bool, str or None with
TypeError, and ``_nonnegative``, ``_positive`` and ``_degree`` add the sign
and range rules on top of it; ``_int`` takes degrees, dimensions, counts
and indices only as ``int``.  The rules' messages write every number through
``_echo`` or ``_echo_number``, so a message is short at any size.  The budget
rules ``_charge`` and ``_charge_comb`` word every HODGESPEC_BUDGET refusal
except the lattice walk's in-loop visit check.  ``_Record`` is the frozen
base of the package's record classes.
"""

from __future__ import annotations

import math
import os
import re
from fractions import Fraction
from functools import lru_cache
from itertools import count
from operator import attrgetter
from typing import Callable

from .errors import BudgetExceeded, DegreeOutOfRange, ParseError

__all__ = [
    "parse_rational",
    "format_rational",
    "sqrt_floor",
]

# ASCII digits only: \d would take every Unicode digit, which int() converts
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")
_ECHO_LIMIT = 80
_EXACT = frozenset((int, Fraction))  # exact types, so a bool is not an int here
DEFAULT_BUDGET = 5_000_000
BUDGET_ENV_VAR = "HODGESPEC_BUDGET"


class _Record:
    """A frozen record: its fields are its class's own annotations, in order.

    A subclass writes its own ``__init__``, which checks its arguments and
    stores the fields with one ``vars(self).update(...)``.  Equality (within
    one class), hash and repr read the fields in order, as a frozen
    dataclass's do; assignment and deletion raise AttributeError.  Values
    kept beside the fields, such as ``cached_property`` results, are ignored.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        # the field tuple, or a one-field record's one value
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _echo(value) -> str:
    """repr of an offending value for an error message, cut after _ECHO_LIMIT characters.

    A repr that fails on Python's int-to-str digit limit does not fail the
    message: an int or Fraction is then named as ``_echo_number`` names it.
    """
    try:
        text = repr(value)
    except ValueError:
        if type(value) in _EXACT:
            return _echo_number(value)
        return f"a {type(value).__name__} too long to write"
    return text if len(text) <= _ECHO_LIMIT else text[:_ECHO_LIMIT] + "..."


def _echo_number(value) -> str:
    """A computed int or Fraction for an error message: in full while its
    numerator and denominator have at most _ECHO_LIMIT digits, else by their
    sign and digit counts, which need no int-to-string conversion."""
    value = Fraction(value)
    parts = (abs(value.numerator), value.denominator)
    if max(parts) < 10**_ECHO_LIMIT:
        return format_rational(value)
    # 1233 / 4096 < log10(2), so each count starts at or below the part's digit count
    num, den = (next(d for d in count(p.bit_length() * 1233 >> 12) if 10**d > p) for p in parts)
    sign = "negative " if value < 0 else ""
    if value.denominator == 1:
        return f"a {sign}{num}-digit integer"
    return f"a {sign}fraction of a {num}-digit over a {den}-digit integer"


def _exact(value, name: str) -> Fraction:
    """``value`` as a Fraction if it is an int or a Fraction (not a bool); else TypeError."""
    if type(value) not in _EXACT:
        raise TypeError(
            f"{name}: expected an int or a Fraction, got {type(value).__name__} {_echo(value)}"
        )
    return Fraction(value)


def _nonnegative(cutoff) -> Fraction:
    """A cutoff or comparison bound as a Fraction; a negative one is refused."""
    cutoff = _exact(cutoff, "cutoff")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    return cutoff


def _positive(error: type[Exception], names: str, *values) -> tuple[Fraction, ...]:
    """``values`` as Fractions; unless all are positive, ``error`` names them all."""
    values = tuple(_exact(value, names) for value in values)
    if min(values) <= 0:
        raise error(f"{names} must be positive, got {', '.join(map(_echo_number, values))}")
    return values


def _int(value, name: str) -> int:
    """``value`` if its type is exactly int (so not a bool); else TypeError naming ``name``."""
    if type(value) is not int:
        raise TypeError(f"{name}: expected an int, got {type(value).__name__} {_echo(value)}")
    return value


def _degree(what: str, n, p, low: int) -> None:
    """Refuse a form degree ``p`` outside ``low..n-low``, or a non-int p or n, for ``what``."""
    _int(p, f"{what}: degree p")
    _int(n, f"{what}: dimension n")
    if not low <= p <= n - low:
        top = f"n-{low}" if low else "n"
        raise DegreeOutOfRange(
            f"{what}: degree p must lie in {low}..{top}, "
            f"got p={_echo_number(p)}, n={_echo_number(n)}"
        )


def _resolve_budget() -> int:
    """The value of HODGESPEC_BUDGET, or DEFAULT_BUDGET when it is unset."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    return DEFAULT_BUDGET if raw is None else _read_budget(raw)


@lru_cache(maxsize=16)
def _read_budget(raw: str) -> int:
    """A HODGESPEC_BUDGET value, read as an integer flag is.

    It must be a rational literal (ASCII digits, no ``_``) whose value is a
    positive whole number, so ``4/2`` is 2.  Every refusal names the
    variable.  The environment is read at every charge, so each value is
    parsed once and kept.
    """
    try:
        value = parse_rational(raw)
    except ParseError as exc:
        raise ParseError(f"{BUDGET_ENV_VAR}: {exc}") from None
    if value.denominator != 1 or value < 1:
        raise ParseError(f"{BUDGET_ENV_VAR} must be a positive integer, got {_echo_number(value)}")
    return value.numerator


def _charge(work: int, what: Callable[[], str], error=BudgetExceeded) -> None:
    """Refuse ``work`` past HODGESPEC_BUDGET: the one rule of every budget refusal.

    ``what()`` words the work.  It is called only on a refusal, so a charge
    that passes formats no text.
    """
    limit = _resolve_budget()
    if work > limit:
        raise error(f"{what()}, budget is {_echo_number(limit)}")


def _charge_comb(n: int, k: int) -> None:
    """Charge the exact binomial C(n, k) before it is computed.

    With k the smaller side, C(n, k) < n^k has at most k * bit_length(n)
    bits, and that bound is the charge.  Below k = 64 a binomial costs
    microseconds and is free.
    """
    k = min(k, n - k)
    if k >= 64:
        bits = n.bit_length()
        _charge(k * bits, lambda: f"binomial C({_echo_number(n)}, {_echo_number(k)}) needs "
                f"{_echo_number(k)} x {bits} bits")


def parse_rational(text: str) -> Fraction:
    """Parse ``"a/b"`` or an integer string into a Fraction.

    >>> parse_rational("3/4")
    Fraction(3, 4)
    >>> parse_rational("-2")
    Fraction(-2, 1)
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ParseError(f"not a rational literal: {_echo(text)} (use 'a/b' or an integer string)")
    num, slash, den = text.strip().partition("/")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"rational literal of {len(text)} characters is too long") from None
    if den == 0:
        raise ParseError(f"zero denominator: {_echo(text)}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Canonical form: lowest terms ``num/den``, plain ``n`` for integers."""
    return str(Fraction(value))


def sqrt_floor(value: Fraction) -> int:
    """Largest integer m with m*m <= value (value must be nonnegative)."""
    if value < 0:
        raise ValueError("sqrt of a negative rational")
    # sqrt(a/b) = sqrt(a*b)/b, and floor(x/b) = floor(floor(x)/b) for an integer b.
    return math.isqrt(value.numerator * value.denominator) // value.denominator

