"""Small exact linear algebra kit: inverse, LDL^T, rank.

Everything works over Fraction entries and returns Fractions; nothing here
ever touches floating point.  Matrices are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

__all__ = ["identity", "invert", "ldlt", "rank", "gram"]

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


def invert(matrix: Sequence[Sequence[Fraction]]) -> Matrix | None:
    """Gauss-Jordan inverse, or None when the matrix is singular."""
    n = len(matrix)
    work = [list(row) + list(ident_row) for row, ident_row in zip(matrix, identity(n))]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            return None
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def ldlt(matrix: Sequence[Sequence[Fraction]]) -> tuple[Matrix, tuple[Fraction, ...]]:
    """Factor a symmetric positive definite matrix as L diag(d) L^T.

    L is unit lower triangular.  Raises ValueError if a pivot fails to be
    positive, which certifies the input was not positive definite.
    """
    n = len(matrix)
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag: list[Fraction] = []
    for j in range(n):
        d = matrix[j][j] - sum(lower[j][k] * lower[j][k] * diag[k] for k in range(j))
        if d <= 0:
            raise ValueError(f"pivot {j} is {d}; matrix is not positive definite")
        diag.append(d)
        lower[j][j] = Fraction(1)
        for i in range(j + 1, n):
            s = matrix[i][j] - sum(lower[i][k] * lower[j][k] * diag[k] for k in range(j))
            lower[i][j] = s / d
    return tuple(tuple(row) for row in lower), tuple(diag)


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank via fraction-free elimination on denominator-cleared rows."""
    rows: list[list[int]] = []
    for row in matrix:
        fracs = [Fraction(x) for x in row]
        lcm = 1
        for x in fracs:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        cleared = [int(x * lcm) for x in fracs]
        g = 0
        for c in cleared:
            g = gcd(g, c)
        if g > 1:
            cleared = [c // g for c in cleared]
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
                new = [pivot * a - entry * b for a, b in zip(rows[i], rows[r])]
                g = 0
                for c in new:
                    g = gcd(g, c)
                rows[i] = [c // g for c in new] if g > 1 else new
        r += 1
        if r == len(rows):
            break
    return r
