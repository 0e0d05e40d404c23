"""Test-side references: a Fraction LDL^T, the walk data read off it, the
candidate visits of an exact layered walk, D_n^+, the rank of sparse rows,
a recount of an isospec witness and the polynomial-space sphere oracle.

The oracle rebuilds the eigenspaces behind ``hodgespec.sphere``'s closed-form
dimensions from componentwise-harmonic, co-closed, homogeneous polynomial
forms on R^{n+1} and recounts their dimensions with exact linear algebra.
"""

import itertools
import math
from bisect import bisect_left
from fractions import Fraction as F
from operator import itemgetter
from typing import Hashable, Mapping, Sequence

from hodgespec.errors import BudgetExceeded, DegreeOutOfRange
from hodgespec.lattice import Lattice, brute_force_enumerate, dual
from hodgespec.linalg import _eliminate
from hodgespec.rationals import sqrt_floor
from hodgespec.torus import TorusOperator

from exterior import Poly, PolyForm, contract_position, d_flat, delta_flat, homogeneous_exponents


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


def exact_visit_count(data, bound) -> int:
    """Candidates of an exact layered walk: the tails (x_i, ..., x_{n-1}) whose
    projected norm sum_{k>=i} d_k (x_k + sum_{j>k} L[j][k] x_j)^2 is <= bound,
    counted by scanning the Cauchy-Schwarz box in Fractions, with L diag(d) L^T the
    reference LDL^T of the dual Gram matrix."""
    n = data.lattice.n
    lower, diag = ldlt(data.dual_gram)
    radii = [sqrt_floor(bound * data.gram[i][i]) for i in range(n)]
    visits = 0
    for level in range(n):
        for tail in itertools.product(*(range(-r, r + 1) for r in radii[level:])):
            x = dict(zip(range(level, n), tail))
            norm = sum(
                diag[k] * (x[k] + sum(lower[j][k] * x[j] for j in range(k + 1, n))) ** 2
                for k in range(level, n)
            )
            visits += norm <= bound
    return visits


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


def witness_multiplicity(op, key: F) -> int:
    """The multiplicity of ``key`` in a torus or interior sphere operator's spectrum.

    A torus side reads the box scan's counts at key / alpha and key / beta,
    times the copy counts C(n-1, p-1) and C(n-1, p).  A sphere side sums the
    factorial closed forms of the dimensions of the series terms whose value
    is ``key``: lambda_k = beta (k+p)(k+n-p-1) / r^2 (k >= 1) and
    mu_k = alpha (k+p)(k+n-p+1) / r^2 (k >= 0).
    """
    n, p = op.n, op.p
    if isinstance(op, TorusOperator):
        table = brute_force_enumerate(dual(op.lattice), key / min(op.alpha, op.beta))
        alpha_copies = math.comb(n - 1, p - 1) if p else 0
        return (alpha_copies * table.multiplicity(key / op.alpha)
                + math.comb(n - 1, p) * table.multiplicity(key / op.beta))
    if not 1 <= p <= n - 1:
        raise DegreeOutOfRange(f"witness recount needs 1 <= p <= n-1, got p={p}, n={n}")
    total = 0
    for k in itertools.count():
        lam = op.beta * (k + p) * (k + n - p - 1) / op.r_squared
        mu = op.alpha * (k + p) * (k + n - p + 1) / op.r_squared
        if min(lam, mu) > key:
            return total
        if k and lam == key:
            top = math.factorial(n + k - 1) * (n + 2 * k - 1)
            total += top // (math.factorial(p) * math.factorial(k - 1) * math.factorial(n - p - 1)
                             * (n + k - p - 1) * (k + p))
        if mu == key:
            top = math.factorial(n + k) * (n + 2 * k + 1)
            total += top // (math.factorial(p - 1) * math.factorial(k) * math.factorial(n - p)
                             * (n + k - p + 1) * (k + p))


def check_witness(left, right, witness: Mapping) -> None:
    """Recount an isospec witness, ``{"key", "left_multiplicity", "right_multiplicity"}``
    as the CLI prints it, on the two operators without the package's spectra: both
    multiplicities must be the recounted ones, and they must differ."""
    key = F(witness["key"])
    counts = witness_multiplicity(left, key), witness_multiplicity(right, key)
    assert counts == (witness["left_multiplicity"], witness["right_multiplicity"]), counts
    assert counts[0] != counts[1]


def rank(rows: Sequence[Mapping[Hashable, F]]) -> int:
    """Rank of the matrix with sparse rows ``{column: entry}``, Fraction or int entries.

    Any orderable column keys will do: a pivot row's column is its least key.
    Each row is cleared of denominators and reduced by fraction-free elimination.
    """
    pivots: list[tuple[int, dict[int, int]]] = []
    for entries in rows:
        nonzero = {j: x for j, x in entries.items() if x}
        scale = math.lcm(*(x.denominator for x in nonzero.values()))
        row = _eliminate(
            {j: x.numerator * (scale // x.denominator) for j, x in nonzero.items()}, pivots
        )
        if row:
            col = min(row)
            pivots.insert(bisect_left(pivots, col, key=itemgetter(0)), (col, row))
    return len(pivots)


# -- polynomial-space oracle -------------------------------------------------

ORACLE_MAX_AMBIENT_DIM = 5
ORACLE_MAX_POLY_DEGREE = 4


def _coords(form: PolyForm, block: int) -> dict[tuple, F]:
    """The form's nonzero coefficients as a sparse row keyed by (block, indices, exponents)."""
    return {
        (block, indices, exps): coeff
        for indices, poly in form.coeffs.items()
        for exps, coeff in poly.terms.items()
        if coeff
    }


def _space_rows(
    nvars: int, degree: int, poly_degree: int, extra: str
) -> tuple[list[dict[tuple, F]], list[dict[tuple, F]]]:
    """Sparse rows of (laplacian | delta) and of (laplacian | delta | extra),
    one of each per basis form, in column blocks 0, 1 and 2.

    ``extra`` is "position" (contraction with the position vector) or "d"
    (exterior derivative).
    """
    apply = contract_position if extra == "position" else d_flat
    constraints: list[dict[tuple, F]] = []
    rows: list[dict[tuple, F]] = []
    for indices in itertools.combinations(range(nvars), degree):
        for exps in homogeneous_exponents(nvars, poly_degree):
            monomial = Poly.monomial(nvars, exps, 1)
            form = PolyForm(nvars, degree, {indices: monomial})
            # from_terms drops the coefficient when the laplacian vanishes
            lap_form = PolyForm.from_terms(nvars, degree, [(indices, monomial.laplacian())])
            row = _coords(lap_form, 0)
            if degree >= 1:
                row |= _coords(delta_flat(form), 1)
            constraints.append(row)
            rows.append(row | _coords(apply(form), 2))
    return constraints, rows


def harmonic_form_dims_oracle(n: int, p: int, k: int) -> tuple[int, int]:
    """Recount (dim_V, dim_W) from polynomial spaces on R^{n+1}.

    Builds the space of componentwise-harmonic, co-closed, homogeneous
    degree-k p-forms; returns the dimension of its position-contraction
    kernel and the dimension of the image of d on the corresponding
    (p-1)-form space one degree up, checking that the two add up to the
    whole space.
    """
    if not 1 <= p <= n - 1:
        raise DegreeOutOfRange(f"oracle needs 1 <= p <= n-1, got p={p}, n={n}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    nvars = n + 1
    if nvars > ORACLE_MAX_AMBIENT_DIM or k > ORACLE_MAX_POLY_DEGREE:
        raise BudgetExceeded(
            f"oracle instance (n+1={nvars}, k={k}) beyond budget "
            f"(n+1 <= {ORACLE_MAX_AMBIENT_DIM}, k <= {ORACLE_MAX_POLY_DEGREE})"
        )

    constraints, rows = _space_rows(nvars, p, k, extra="position")
    dim_whole = len(rows) - rank(constraints)
    dim_ker_nu = len(rows) - rank(rows)

    constraints_low, rows_low = _space_rows(nvars, p - 1, k + 1, extra="d")
    dim_image_d = rank(rows_low) - rank(constraints_low)

    if dim_whole != dim_ker_nu + dim_image_d:
        raise AssertionError(
            f"decomposition failed for (n={n}, p={p}, k={k}): "
            f"{dim_whole} != {dim_ker_nu} + {dim_image_d}"
        )
    return dim_ker_nu, dim_image_d
