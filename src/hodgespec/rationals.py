"""Strict rational parsing, canonical formatting, exact integer square roots.

The wire format for rationals is ``"num/den"`` in lowest terms, or ``"n"``
for integers.  Decimal and float notation is rejected on purpose: every
number in this package is exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

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

