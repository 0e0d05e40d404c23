"""Test-side references: a Fraction LDL^T, the walk data read off it, and D_n^+."""

import math
from fractions import Fraction as F

from hodgespec.lattice import Lattice


def ldlt(matrix):
    """L diag(d) L^T of a symmetric positive definite matrix, L unit lower triangular.

    Raises ValueError on a pivot that is not positive.  Zero entries of L are skipped.
    """
    n = len(matrix)
    lower = [[F(0)] * n for _ in range(n)]
    diag = []
    for j in range(n):
        scaled = [(k, x * diag[k]) for k, x in enumerate(lower[j][:j]) if x]
        d = matrix[j][j] - sum(lower[j][k] * s for k, s in scaled)
        if d <= 0:
            raise ValueError(f"pivot {j} is {d}; matrix is not positive definite")
        diag.append(d)
        lower[j][j] = F(1)
        for i in range(j + 1, n):
            s = matrix[i][j] - sum(lower[i][k] * t for k, t in scaled if lower[i][k])
            if s:
                lower[i][j] = s / d
    return tuple(map(tuple, lower)), tuple(diag)


def walk_data(dual_gram):
    """(clear, terms, weights, scale) of the walk, cleared off ldlt(dual_gram).

    c_i clears column i of L, the terms are c_i L[j][i], and T is the least
    scale that makes every w_i = T d_i / c_i^2 an integer.
    """
    lower, diag = ldlt(dual_gram)
    n = len(diag)
    clear = [math.lcm(*(lower[j][i].denominator for j in range(i + 1, n))) for i in range(n)]
    terms = tuple(
        tuple((j, int(clear[i] * lower[j][i])) for j in range(i + 1, n) if lower[j][i])
        for i in range(n)
    )
    ratios = [diag[i] / (clear[i] * clear[i]) for i in range(n)]
    scale = math.lcm(*(r.denominator for r in ratios))
    return tuple(clear), terms, tuple(int(scale * r) for r in ratios), scale


def d_plus(n: int) -> Lattice:
    """D_n^+ (n = 8 is E8) from rows 2e_0, e_{i+1} - e_i (i < n-2) and (1/2, ..., 1/2)."""
    rows = [[F(2)] + [F(0)] * (n - 1)]
    for i in range(n - 2):
        row = [F(0)] * n
        row[i], row[i + 1] = F(-1), F(1)
        rows.append(row)
    rows.append([F(1, 2)] * n)
    return Lattice(tuple(map(tuple, rows)))


def e8_plus_e8() -> Lattice:
    """E8 (+) E8, block-diagonal in 16 coordinates."""
    e8 = d_plus(8).basis
    zeros = (F(0),) * 8
    return Lattice(tuple(row + zeros for row in e8) + tuple(zeros + row for row in e8))
