"""Full-rank rational lattices, their dual walk data, and exact norm enumeration.

A lattice is given by a basis of R^n with rational coordinates.  The dual
basis pairs to the identity against the primal one, so its Gram matrix is
G^-1 for the basis's Gram matrix G, and spectra of flat tori R^n / Lambda
reduce to counting dual vectors of a given squared length.  :func:`dual`
reaches the walk's integer data, the cleared LDL^T of G^-1, from one sparse
fraction-free elimination of the denominator-cleared Gram matrix.  The
Fraction matrices G and G^-1 are built from the lattice and the walk data on
their first read; only the box scan reads them.

Two enumeration routes are provided; both return a FOUR_PI_SQUARED
:class:`WeightedSpectrum` whose keys are the dual squared norms, complete up
to ``cutoff = bound``.  ``enumerate_norms`` walks coordinate layers along the
LDL^T factorization of the dual Gram matrix (Fincke-Pohst), held as integers:
per layer, an integer c_i and integer terms make the layer's offset an
integer y_i, and one global scale T turns every pivot into an integer weight,
so T*|l|^2 = sum_i w_i y_i^2.  The walk runs in Python ints: the bracket
|y_i| <= isqrt(remaining // w_i) is exact, every candidate in it is a member,
and the integer norms are sorted and kept as the spectrum's int keys over T;
no Fraction is built.  Each layer's shift, the terms' part of y_i, is carried
down the walk (Schnorr-Euchner): setting x_j moves the shifts of the layers
below by t x_j, each step of x_j by t, and its loop moves them back at the
end.  The walk visits one vector of each pair +-l (the one whose first
nonzero coordinate, from the top layer down, is positive) and counts it
twice; it charges each bracket once for itself and once for its mirror, so
the budget counts the visits of the full walk.  Queries that need one or two
exact counts (``count_norm`` here, and the torus multiplicity query) share
one helper: it walks the same layers to the largest norm asked for but counts
only the integer keys ``q * T`` at the last layer, one ``isqrt`` per key, and
builds no spectrum; a norm whose ``q * T`` is not an integer has count 0.
``brute_force_enumerate`` is the deliberately dumb reference: it scans the
full integer box given by the per-coordinate bound x_i^2 <= Q * <b_i, b_i>
(from x_i = <l, b_i> and Cauchy-Schwarz) and rechecks every cell in integers,
against the dual Gram matrix scaled by the lcm S of its denominators and the
bound floor(S * Q).  Its ``dual_gram`` is rebuilt from the walk data, so
``test_dual_factor_is_the_ldlt_of_the_inverse_gram`` keeps it an independent
check: G G^-1 = I against ``linalg.gram(basis)``, and the walk data against
``tests/oracles.walk_data``.  Both count the zero vector.

The environment variable HODGESPEC_BUDGET caps enumeration work for both,
and the n^3 matrix work of :func:`dual`, which each Lattice object pays once,
on first use: the object keeps the DualData built for it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from . import linalg, rationals
from .errors import BoxTooLarge, BudgetExceeded, ParseError, SingularBasis
from .multiset import Unit, WeightedSpectrum, _from_int_keys
from .rationals import (
    _charge, _echo, _echo_number, _exact, _int, _nonnegative, _Record, format_rational,
    parse_rational, sqrt_floor,
)

__all__ = [
    "Lattice",
    "DualData",
    "standard_lattice",
    "dual",
    "enumerate_norms",
    "count_norm",
    "brute_force_enumerate",
    "DEFAULT_BUDGET",
    "BUDGET_ENV_VAR",
]

DEFAULT_BUDGET, BUDGET_ENV_VAR = rationals.DEFAULT_BUDGET, rationals.BUDGET_ENV_VAR


def _is_list_of(value, length: int) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == length


class Lattice(_Record):
    """Full-rank lattice; ``basis[i]`` is the i-th basis vector."""

    basis: tuple[tuple[Fraction, ...], ...]

    def __init__(self, basis: tuple[tuple[Fraction, ...], ...]) -> None:
        basis = tuple(tuple(_exact(x, "basis entry") for x in row) for row in basis)
        n = len(basis)
        if n < 1:
            raise ValueError("lattice needs at least one basis vector")
        if any(len(row) != n for row in basis):
            raise ValueError("basis must be a square matrix")
        vars(self).update(basis=basis)

    @property
    def n(self) -> int:
        return len(self.basis)

    @cached_property
    def _dual(self) -> "DualData":
        # Built on first use and kept in the instance dict; not a field, so
        # equality, hashing, repr and JSON ignore it.
        return _build_dual(self)

    def scaled(self, factor) -> "Lattice":
        factor = _exact(factor, "scale factor")
        if factor == 0:
            raise ValueError("scale factor must be nonzero")
        return Lattice(tuple(tuple(factor * x for x in row) for row in self.basis))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "basis": [[format_rational(x) for x in row] for row in self.basis],
            "layout": "row-major",
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "Lattice":
        try:
            n = payload["n"]
            rows = payload["basis"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"lattice payload needs 'n' and 'basis': {exc}") from None
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ParseError(f"lattice dimension must be a positive int, got {_echo(n)}")
        layout = payload.get("layout", "row-major")
        if layout not in ("row-major", "column-major"):
            raise ParseError(f"unknown basis layout {_echo(layout)}")
        if not _is_list_of(rows, n) or not all(_is_list_of(row, n) for row in rows):
            raise ParseError(f"basis must be {_echo_number(n)}x{_echo_number(n)}")
        matrix = tuple(tuple(parse_rational(str(x)) for x in row) for row in rows)
        if layout == "column-major":
            matrix = tuple(zip(*matrix))
        return cls(matrix)


def standard_lattice(n: int) -> Lattice:
    """Z^n with the identity basis.

    The n^3 charge of :func:`dual` comes first, before the n x n identity is built.
    """
    _charge_dimension(_int(n, "n"))
    return Lattice(linalg.identity(n))


class DualData(_Record):
    """A lattice with the walk data of its dual, and the Gram matrices built on first read.

    The walk data are integers: the dual vector with coordinates x has
    T|l|^2 = sum_i w_i y_i^2 with y_i = c_i x_i + sum_{(j, t) in terms[i]} t x_j,
    where ``clear`` holds the c_i, ``weights`` the w_i > 0 and ``scale`` is T.
    This is the LDL^T of ``dual_gram`` with its denominators cleared:
    L[j][i] = t / c_i and d_i = w_i c_i^2 / T.  The Fraction matrices ``gram``
    and ``dual_gram`` (its inverse: the dual basis pairs to the identity
    against the basis) are read only by the box scan, so each is built on
    its first read and kept; no walk builds them.  Get a DualData from
    :func:`dual`, which builds it once per Lattice object.
    """

    lattice: Lattice
    clear: tuple[int, ...]
    terms: tuple[tuple[tuple[int, int], ...], ...]
    weights: tuple[int, ...]
    scale: int

    def __init__(
        self,
        lattice: Lattice,
        clear: tuple[int, ...],
        terms: tuple[tuple[tuple[int, int], ...], ...],
        weights: tuple[int, ...],
        scale: int,
    ) -> None:
        vars(self).update(lattice=lattice, clear=clear, terms=terms, weights=weights, scale=scale)

    # Built on first read and kept in the instance dict; not fields, so
    # equality, hashing and repr ignore them.
    @cached_property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        return linalg.gram(self.lattice.basis)

    @cached_property
    def dual_gram(self) -> tuple[tuple[Fraction, ...], ...]:
        # T G^-1 = sum_i w_i t_i t_i^T, with t_i = c_i e_i + the terms of level i
        totals: list[dict[int, int]] = [{} for _ in self.clear]
        for i, (c, w) in enumerate(zip(self.clear, self.weights)):
            entries = ((i, c),) + self.terms[i]
            for at, (a, x) in enumerate(entries):
                total, wx = totals[a], w * x
                for b, y in entries[at:]:
                    total[b] = total.get(b, 0) + wx * y
        return linalg._symmetric(totals, self.scale)


def _charge_dimension(n: int) -> None:
    """Refuse a dimension whose n^3 matrix work exceeds HODGESPEC_BUDGET."""
    _charge(n**3, lambda: f"dimension {_echo_number(n)} needs {_echo_number(n)}^3 matrix steps")


def dual(lattice: Lattice) -> DualData:
    """The walk's integer data for the dual of the lattice (and its Gram matrices, on read).

    The lattice object owns the result: the first call builds it and stores it
    on the object, and every later call returns that same DualData and charges
    nothing.  A refused or failed build stores nothing, and two equal but
    distinct lattices each build (and pay for) their own.
    """
    return lattice._dual


def _build_dual(lattice: Lattice) -> DualData:
    """The DualData of :func:`dual`, built from scratch.

    Clearing the basis, D B = M, makes A = M M^T = D^2 G an integer matrix.
    With J the coordinate reversal, let J A J = L1 D1 L1^T.  One fraction-free
    elimination of [J A J | I] leaves in row m a multiple s (row m of L1^-1)
    on the right and s D1[m] as its pivot.  By uniqueness of LDL^T,
    G^-1 = L diag(d) L^T with L = J L1^-T J and d = D^2 J D1^-1 J, so row m
    gives walk level i = n-1-m: c_i = s, the terms are the other right-hand
    entries, and d_i = D^2 s / pivot.  The right part v has v J A J as left
    part, so the gcd of v divides the whole row, which the elimination keeps
    primitive: c_i is the least integer that clears column i of L.  The
    elimination takes about n^3 steps, charged to HODGESPEC_BUDGET before any
    matrix work starts.  A singular basis shows up as a zero pivot.  The build
    stops at the weights: G and G^-1 are left to ``DualData``'s first read.
    """
    n = lattice.n
    _charge_dimension(n)
    ints, square = linalg._integer_gram(lattice.basis)
    pivots: list[tuple[int, dict[int, int]]] = []
    clear, terms, dens = [1] * n, [()] * n, [1] * n
    last = 2 * n - 1
    for m in range(n):
        i = n - 1 - m  # row m of [J A J | I] is row i of A reversed, then e_m
        row = linalg._eliminate({n - 1 - j: x for j, x in ints[i].items()} | {n + m: 1}, pivots)
        if row.get(m, 0) <= 0:
            raise SingularBasis("lattice basis is singular")
        pivots.append((m, row))
        # column last - j holds s L1^-1[m][n-1-j] = s L[j][i]
        clear[i] = s = row[n + m]
        terms[i] = tuple((j, row[last - j]) for j in range(i + 1, n) if last - j in row)
        dens[i] = row[m] * s  # d_i / c_i^2 = D^2 / (pivot s)
    # T is the least common denominator of the d_i / c_i^2, and w_i = T d_i / c_i^2
    scale = math.lcm(*(den // math.gcd(square, den) for den in dens))
    weights = tuple(scale * square // den for den in dens)
    return DualData(lattice, tuple(clear), tuple(terms), weights, scale)


def _walk(dual_data: DualData, bound: Fraction, keys: set[int] | None = None) -> dict[int, int]:
    """Integer norm table of the dual vectors with squared norm <= bound >= 0.

    The table maps each key to the number of vectors of squared norm
    ``key / T``, T the dual data's scale.  Given a set of ``keys``, each at
    most ``T * bound``, the table holds only those: the last layer solves
    w y^2 = key - base for each key instead of scanning its bracket, which it
    still charges in full, so the budget counts the same visits either way.

    l and -l have the same norm, so the walk visits one of each pair: the
    vectors whose first nonzero coordinate, from the top level down, is
    positive, each counted twice, and the zero vector once.  A multiplier
    carried down the walk is 1 while every coordinate above is 0; there the
    shift is 0 and the bracket -high..high, so x = 0 keeps multiplier 1 and
    x = 1..high take 2.  The subtree at -x mirrors the one at x, bracket for
    bracket, so charging each bracket ``multiplier`` times charges exactly
    the visits of the full walk, and every budget refusal is the one the
    full walk would make.

    No node sums its own shift: ``shifts[i]`` holds the terms' part of y_i
    for the coordinates set so far.  A level j that sets x = low adds t * low
    to the shift of each level i with a term (j, t), adds t at each step of
    x, and takes t * (high + 1) back after its loop, which also restores an
    empty bracket, where low = high + 1.
    """
    limit = rationals._resolve_budget()
    n = dual_data.lattice.n
    clear, terms, weights = dual_data.clear, dual_data.terms, dual_data.weights
    top = dual_data.scale * bound.numerator // bound.denominator
    counts: dict[int, int] = {}
    # moves[j] lists the (i, t) with t x_j in y_i: the shifts that x_j moves
    shifts = [0] * n
    moves: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        for j, t in terms[i]:
            moves[j].append((i, t))
    visited = 0

    def descend(level: int, remaining: int, multiplier: int) -> None:
        # Every x with w * (c*x + shift)^2 <= remaining is a candidate, and each one fits.
        # At multiplier 2 the node also stands for its unwalked mirror.
        nonlocal visited
        c, w, shift = clear[level], weights[level], shifts[level]
        radius = math.isqrt(remaining // w)
        low, high = -((radius + shift) // c), (radius - shift) // c
        visited += multiplier * (high - low + 1)
        if visited > limit:
            shown = _echo_number(limit)
            raise BudgetExceeded(f"norm enumeration exceeded budget of {shown} candidate visits")
        if level == 0:
            base = top - remaining
            if keys is None:
                for y in range(c * low + shift, c * high + shift + 1, c):
                    key = base + w * y * y
                    counts[key] = counts.get(key, 0) + multiplier
                return
            for key in keys:
                square, rest = divmod(key - base, w)
                if rest or square < 0:
                    continue
                y = math.isqrt(square)
                if y * y != square:
                    continue
                # key <= top puts +-y in the bracket, and each is a member when = shift mod c
                hits = ((y - shift) % c == 0) + (y > 0 and (y + shift) % c == 0)
                if hits:
                    counts[key] = counts.get(key, 0) + multiplier * hits
            return
        if multiplier == 1:
            # Every coordinate above is 0, so shift is 0 and the bracket is -high..high:
            # walk x = 0 as it is, and x = 1..high for themselves and their mirrors -x.
            descend(level - 1, remaining, 1)
            low, multiplier = 1, 2
        moved = moves[level]
        for i, t in moved:
            shifts[i] += t * low
        for y in range(c * low + shift, c * high + shift + 1, c):
            descend(level - 1, remaining - w * y * y, multiplier)
            for i, t in moved:
                shifts[i] += t
        for i, t in moved:
            shifts[i] -= t * (high + 1)

    descend(n - 1, top, 1)
    return counts


def _exact_counts(dual_data: DualData, *norms: Fraction) -> tuple[int, ...]:
    """The number of dual vectors of each squared norm in ``norms`` (all >= 0).

    One walk to the largest norm counts only their integer keys ``norm * T``:
    a norm where that is not an integer has count 0, and a norm given twice
    is one key, counted once.
    """
    keyed = [divmod(dual_data.scale * norm.numerator, norm.denominator) for norm in norms]
    counts = _walk(dual_data, max(norms), {key for key, rest in keyed if not rest})
    return tuple(0 if rest else counts.get(key, 0) for key, rest in keyed)


def enumerate_norms(dual_data: DualData, bound) -> WeightedSpectrum:
    """Exact counts of dual vectors with squared norm <= bound (zero included)."""
    bound = _nonnegative(bound)
    counts = _walk(dual_data, bound)
    table = [(key, counts[key]) for key in sorted(counts)]
    return _from_int_keys(Unit.FOUR_PI_SQUARED, bound, table, dual_data.scale)


def count_norm(dual_data: DualData, norm) -> int:
    """Number of dual vectors of exactly the given squared norm.

    Walks the ball of radius^2 ``norm`` but counts only its boundary key (none
    when ``norm`` is off the walk's grid), and builds no table.
    """
    norm = _exact(norm, "norm")
    if norm < 0:
        return 0
    return _exact_counts(dual_data, norm)[0]


def brute_force_enumerate(dual_data: DualData, bound) -> WeightedSpectrum:
    """Reference enumeration: scan the Cauchy-Schwarz box, recheck every cell on ``dual_gram``."""
    bound = _nonnegative(bound)
    n = dual_data.lattice.n
    radii = [sqrt_floor(bound * dual_data.gram[i][i]) for i in range(n)]
    cells = math.prod(2 * r + 1 for r in radii)
    _charge(cells, lambda: f"brute-force box has {_echo_number(cells)} cells", BoxTooLarge)
    # scale * dual_gram is an integer matrix, so scale * |l|^2 is an integer per cell.
    scale = math.lcm(*(x.denominator for row in dual_data.dual_gram for x in row))
    dual_gram = [[int(scale * x) for x in row] for row in dual_data.dual_gram]
    top = scale * bound.numerator // bound.denominator
    counts: dict[int, int] = {}
    for coords in itertools.product(*(range(-r, r + 1) for r in radii)):
        norm = 0
        for i in range(n):
            if coords[i] == 0:
                continue
            row = dual_gram[i]
            norm += row[i] * coords[i] * coords[i]
            for j in range(i + 1, n):
                if coords[j] != 0:
                    norm += 2 * row[j] * coords[i] * coords[j]
        if norm <= top:
            counts[norm] = counts.get(norm, 0) + 1
    table = [(key, counts[key]) for key in sorted(counts)]
    return _from_int_keys(Unit.FOUR_PI_SQUARED, bound, table, scale)
