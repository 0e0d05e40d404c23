"""Strict rational parsing, canonical formatting, exact integer square roots.

The wire format for rationals is ``"num/den"`` in lowest terms, or ``"n"``
for integers.  Decimal and float notation is rejected on purpose: every
number in this package is exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import count

from .errors import ParseError

__all__ = [
    "parse_rational",
    "format_rational",
    "sqrt_floor",
]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_ECHO_LIMIT = 80


def _echo(value) -> str:
    """repr of an offending value for an error message, cut after _ECHO_LIMIT characters."""
    text = repr(value)
    return text if len(text) <= _ECHO_LIMIT else text[:_ECHO_LIMIT] + "..."


def _echo_number(value) -> str:
    """A computed int or Fraction for an error message: in full while its
    numerator and denominator have at most _ECHO_LIMIT digits, else by their
    digit counts, which need no int-to-string conversion."""
    value = Fraction(value)
    parts = (abs(value.numerator), value.denominator)
    if max(parts) < 10**_ECHO_LIMIT:
        return format_rational(value)
    # 1233 / 4096 < log10(2), so each count starts at or below the part's digit count
    num, den = (next(d for d in count(p.bit_length() * 1233 >> 12) if 10**d > p) for p in parts)
    if value.denominator == 1:
        return f"a {num}-digit integer"
    return f"a fraction of a {num}-digit over a {den}-digit integer"


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

