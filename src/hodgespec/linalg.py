"""Small exact linear algebra kit: Gram matrix and fraction-free elimination.

Nothing here ever touches floating point.  Matrices are tuples of row tuples
of Fractions.  Elimination works on sparse integer rows, ``{column: entry}``
dicts that hold no zero entry, so a zero is never multiplied or divided.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

__all__ = ["identity", "gram"]

Matrix = tuple[tuple[Fraction, ...], ...]
Row = dict[int, int]


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def _integer_gram(vectors: Sequence[Sequence[Fraction]]) -> tuple[list[Row], int]:
    """``(A, s)`` with A an integer matrix, as sparse rows, and A / s the Gram matrix.

    One common denominator D clears every coordinate, so s = D^2 and A is the
    sum over coordinates of the outer product of the cleared coordinate
    column with itself, taken over its nonzero entries only.
    """
    scale = lcm(*(x.denominator for v in vectors for x in v))
    rows: list[Row] = [{} for _ in vectors]
    for column in zip(*vectors):
        nonzero = [(i, x.numerator * (scale // x.denominator)) for i, x in enumerate(column) if x]
        for i, x in nonzero:
            row = rows[i]
            for j, y in nonzero:
                row[j] = row.get(j, 0) + x * y
    return [{j: x for j, x in row.items() if x} for row in rows], scale * scale


def _symmetric(rows: Sequence[Row], den: int) -> Matrix:
    """The symmetric matrix rows / den, read off the upper triangle, one Fraction per pair."""
    out = [[Fraction(0)] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row.items():
            if j >= i:
                out[i][j] = out[j][i] = Fraction(x, den)
    return tuple(tuple(row) for row in out)


def gram(vectors: Sequence[Sequence[Fraction]]) -> Matrix:
    """Matrix of pairwise Euclidean inner products (entries Fractions or ints)."""
    return _symmetric(*_integer_gram(vectors))


def _eliminate(row: Row, pivots: Sequence[tuple[int, Row]]) -> Row:
    """The row with every pivot column cleared, pivots in increasing column order.

    A pivot row's entries sit at its column or to the right, so a step adds no
    entry at a column already cleared.  Each step is fraction-free (Bareiss,
    Math. Comp. 22 (1968) 565-578): the row becomes pivot * row - entry *
    pivot_row, divided by the gcd of its entries, so the row comes out
    primitive whenever it goes in primitive.  That keeps the row on the
    same line as exact Gaussian elimination would, with entries no larger
    than Bareiss's minors, and leaves a row that is zero at the pivot column
    untouched.  With positive pivots, the signs of the row's entries at
    columns no pivot row touches are kept.
    """
    for col, pivot_row in pivots:
        entry = row.get(col)
        if entry is None:
            continue
        pivot = pivot_row[col]
        out = {j: pivot * x for j, x in row.items()}
        for j, x in pivot_row.items():
            out[j] = out.get(j, 0) - entry * x
        g = gcd(*out.values())
        row = {j: x // g for j, x in out.items() if x}
    return row
