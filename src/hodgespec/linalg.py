"""Small exact linear algebra kit: Gram matrix, LDL^T, rank.

Everything works over Fraction entries and returns Fractions; nothing here
ever touches floating point.  Matrices are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

__all__ = ["identity", "ldlt", "rank", "gram"]

Matrix = tuple[tuple[Fraction, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def gram(vectors: Sequence[Sequence[Fraction]]) -> Matrix:
    """Matrix of pairwise Euclidean inner products.

    Entries may be Fractions or ints.  One common denominator D clears every
    coordinate, so <u, v> = <Du, Dv> / D^2 with integer dot products, taken
    once per pair and mirrored.
    """
    scale = lcm(*(x.denominator for v in vectors for x in v))
    cleared = [[x.numerator * (scale // x.denominator) for x in v] for v in vectors]
    square = scale * scale
    rows = [[0] * len(cleared) for _ in cleared]
    for i, u in enumerate(cleared):
        for j in range(i, len(cleared)):
            rows[i][j] = rows[j][i] = Fraction(sum(map(mul, u, cleared[j])), square)
    return tuple(tuple(row) for row in rows)


def ldlt(matrix: Sequence[Sequence[Fraction]]) -> tuple[Matrix, tuple[Fraction, ...]]:
    """Factor a symmetric positive definite matrix as L diag(d) L^T.

    L is unit lower triangular.  Raises ValueError if a pivot fails to be
    positive, which certifies the input was not positive definite.  Zero
    entries of L are skipped, so a sparse factor costs far less than n^3/6.
    """
    n = len(matrix)
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag: list[Fraction] = []
    for j in range(n):
        # (k, L[j][k] * d[k]) for the nonzero entries left of the diagonal in row j
        scaled = [(k, x * diag[k]) for k, x in enumerate(lower[j][:j]) if x]
        d = matrix[j][j] - sum(lower[j][k] * s for k, s in scaled)
        if d <= 0:
            raise ValueError(f"pivot {j} is {d}; matrix is not positive definite")
        diag.append(d)
        lower[j][j] = Fraction(1)
        for i in range(j + 1, n):
            row = lower[i]
            s = matrix[i][j] - sum(row[k] * t for k, t in scaled if row[k])
            if s:
                row[j] = s / d
    return tuple(tuple(row) for row in lower), tuple(diag)


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [c // g for c in row] if g > 1 else row


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank via fraction-free elimination on denominator-cleared rows."""
    rows: list[list[int]] = []
    for row in matrix:
        fracs = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in fracs))
        cleared = _primitive([int(x * scale) for x in fracs])
        if any(cleared):
            rows.append(cleared)
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][col]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                entry = rows[i][col]
                rows[i] = _primitive([pivot * a - entry * b for a, b in zip(rows[i], rows[r])])
        r += 1
        if r == len(rows):
            break
    return r
