"""Spectra of alpha d delta + beta delta d on round spheres S^n of radius r.

For 1 <= p <= n-1 the spectrum on p-forms is two interleaved series with
keys in the PLAIN unit (true eigenvalues; r^2 must be rational):

    lambda_k = beta * (k+p) * (k+n-p-1) / r^2   (k >= 1, dimension dim_V)
    mu_k     = alpha * (k+p) * (k+n-p+1) / r^2  (k >= 0, dimension dim_W)

Both dimension formulas come from spaces of componentwise-harmonic,
co-closed, homogeneous polynomial forms on R^{n+1} (Ikeda & Taniguchi, Osaka
J. Math. 15 (1978) 515-546); the test suite's polynomial oracle rebuilds
those spaces with exact linear algebra and recounts the dimensions.

p = 0 carries beta times the scalar Laplace series k(k+n-1)/r^2 with the
classical harmonic multiplicities (the codifferential kills functions), and
p = n is p = 0 with alpha and beta swapped; both are flagged as duality
extensions on the operator.  ``generic=True`` again means a formally
irrational alpha/beta: parts stay unmerged and coincidences are suppressed.

Every series value is scale * (k+p)(k+b) with the rational scale
coefficient / r^2 (p = 0 for the scalar series).  Over den, the lcm of the
operator's scale denominators, term k has the integer key
scale * den * (k+p)(k+b).  The series are cut at floor(cutoff * den), merged
and matched as integers, and one Fraction is built per returned entry, as for
the torus norm tables.  Each series describes its dimensions once, as
products of two binomial coefficients; a series steps C(k + top, n) from one
term to the next by exact integer ratios, and ``dim_V``, ``dim_W`` and
``harmonic_polynomial_dim`` read the same description in closed form.  The
budget is charged for the size of those binomials before any term is made.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, lcm
from typing import Iterator

from .errors import BudgetExceeded, NonpositiveScalar
from .lattice import _resolve_budget
from .multiset import Unit, WeightedSpectrum, _from_int_keys, _operator_spectrum
from .rationals import _degree, _echo_number, _int, _nonnegative, _positive

__all__ = [
    "Series",
    "SeriesTerm",
    "SphereEigenvalue",
    "SphereOperator",
    "lambda_k",
    "mu_k",
    "dim_V",
    "dim_W",
    "harmonic_polynomial_dim",
    "spectrum_parts",
    "spectrum",
    "eigenvalue_details",
    "coincidences",
]


class Series(enum.Enum):
    LAMBDA = "lambda"
    MU = "mu"


@dataclass(frozen=True)
class SphereOperator:
    """alpha d delta + beta delta d on p-forms of S^n with squared radius r_squared."""

    n: int
    p: int
    alpha: Fraction
    beta: Fraction
    r_squared: Fraction = Fraction(1)
    generic: bool = False

    def __post_init__(self) -> None:
        if type(self.n) is int and self.n < 1:
            raise ValueError(f"sphere dimension must be at least 1, got {_echo_number(self.n)}")
        _degree("sphere operator", self.n, self.p, 0)
        scalars = _positive(
            NonpositiveScalar, "alpha, beta, r_squared", self.alpha, self.beta, self.r_squared
        )
        for name, value in zip(("alpha", "beta", "r_squared"), scalars):
            object.__setattr__(self, name, value)

    @property
    def duality_extension(self) -> bool:
        """True on the degrees handled via duality (p = 0 and p = n)."""
        return self.p == 0 or self.p == self.n

    def _require_interior(self) -> None:
        _degree("series formulas", self.n, self.p, 1)


def _as_int(numerator: int, denominator: int, formula: "_SeriesFormula", k: int) -> int:
    """The exact quotient of a step of the series' dimension at term k."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise AssertionError(
            f"{formula.series.value} dimension at n={formula.n}, k={k} came out "
            f"non-integral: {Fraction(numerator, denominator)}"
        )
    return quotient


def dim_V(n: int, p: int, k: int) -> int:
    """Dimension of the k-th eigenspace on the lambda side (zero at k = 0)."""
    _degree("dim_V", n, p, 1)
    if _int(k, "k") < 0:
        raise ValueError("k must be nonnegative")
    return _lambda_series(n, p, 1, 1).dim(k) if k else 0


def dim_W(n: int, p: int, k: int) -> int:
    """Dimension of the k-th eigenspace on the mu side (defined for k >= 0)."""
    _degree("dim_W", n, p, 1)
    if _int(k, "k") < 0:
        raise ValueError("k must be nonnegative")
    return _mu_series(n, p, 1, 1).dim(k)


def harmonic_polynomial_dim(nvars: int, degree: int) -> int:
    """Dimension of harmonic homogeneous polynomials of a given degree.

    The scalar series of S^(nvars-1).  On R^1 (n = 0) both 1 and x have
    (k+p)(k+b) = 0, so the dimensions are 1, 1, 0, 0, ...
    """
    nvars, degree = _int(nvars, "nvars"), _int(degree, "degree")
    if nvars < 1 or degree < 0:
        raise ValueError("need nvars >= 1 and degree >= 0")
    return _scalar_series(nvars - 1, 1, 1, Series.LAMBDA).dim(degree)


@dataclass(frozen=True)
class _SeriesFormula:
    """One eigenvalue series of p-forms on S^n: value(k) = scale (k+p)(k+b), k >= start.

    ``scale`` is the coefficient over r^2, both positive (the factories take
    checked values), and the scalar series is p = 0.
    Values strictly increase in k, so the terms come out as sorted entries.
    The eigenspace of term k has dimension

        C(n, p) * weight * C(k + top, n) * (2k + p + b) / ((k + p)(k + b))

    (Ikeda & Taniguchi), except where (k+p)(k+b) vanishes: that term is the
    zero eigenvalue of the scalar series, spanned by the constants, of
    dimension 1.  ``dim`` reads this closed form with ``math.comb``;
    ``terms`` steps its binomials from one term to the next.  Both charge
    the budget through ``_charge`` and compute through ``_binomials`` and
    ``_dim``.
    """

    series: Series
    start: int
    scale: Fraction
    n: int
    p: int
    b: int
    weight: int
    top: int

    def value(self, k: int) -> Fraction:
        scale = self.scale
        return Fraction(scale.numerator * (k + self.p) * (k + self.b), scale.denominator)

    def dim(self, k: int) -> int:
        """The dimension of term k, from the closed form, charged as one term."""
        self._charge(1, k)
        quadratic = (k + self.p) * (k + self.b)
        return self._dim(k, quadratic and self._binomials(k), quadratic)

    def _charge(self, terms: int, last: int) -> None:
        """Charge ``terms`` dimensions up to term ``last`` to HODGESPEC_BUDGET.

        Each costs 1 + min(n, last) + min(p, n-p), which bounds the smaller
        sides of C(k + top, n) and C(n, p), so the size of the dimension.
        """
        n, p = self.n, self.p
        width = 1 + min(n, last) + min(p, n - p)
        limit = _resolve_budget()
        if terms * width > limit:
            count, width = _echo_number(terms), _echo_number(width)
            raise BudgetExceeded(
                f"sphere dimensions need {count} terms times {width} work, budget is {limit}"
            )

    def _binomials(self, k: int) -> int:
        """C(n, p) * weight * C(k + top, n): the part of the dimension that steps in k."""
        return comb(self.n, self.p) * self.weight * comb(k + self.top, self.n)

    def _dim(self, k: int, binomials: int, quadratic: int) -> int:
        """The dimension of term k from its ``_binomials`` and (k+p)(k+b)."""
        if not quadratic:
            return 1
        return _as_int(binomials * (2 * k + self.p + self.b), quadratic, self, k)

    def terms(self, cutoff: Fraction, den: int) -> Iterator[tuple[int, int, int]]:
        """(k, key, dim) of every term with value(k) = key / den <= cutoff.

        ``den`` is a multiple of the scale's denominator, so the key is the
        integer factor * (k+p)(k+b) with factor = scale * den.  value(k) <=
        cutoff exactly when (k+p)(k+b) <= m = floor(cutoff/scale), and
        4(k+p)(k+b) = (2k+p+b)^2 - (p-b)^2 names the last such k.

        Every term's dimension is charged (``_charge``) before any term is
        made.  From term to term, C(k+top, n) = C(k-1+top, n) *
        (k+top) / (k+top-n) is an exact division, checked at every step.  A
        zero (the constants' term) does not step, so the next term starts
        again from ``_binomials``.
        """
        n, p, b, top = self.n, self.p, self.b, self.top
        factor = self.scale.numerator * (den // self.scale.denominator)
        # floor(cutoff/scale) = floor(floor(cutoff * den) / factor)
        m = den * cutoff.numerator // cutoff.denominator // factor
        if m < (self.start + p) * (self.start + b):
            return
        last = (isqrt(4 * m + (p - b) ** 2) - p - b) // 2
        ks = range(self.start, last + 1)
        self._charge(len(ks), last)
        binomials = 0
        for k in ks:
            if binomials:
                binomials = _as_int(binomials * (k + top), k + top - n, self, k)
            else:
                binomials = self._binomials(k)
            quadratic = (k + p) * (k + b)
            yield k, factor * quadratic, self._dim(k, binomials, quadratic)

    def spectrum(self, cutoff: Fraction) -> WeightedSpectrum:
        den = self.scale.denominator
        entries = [(key, dim) for _, key, dim in self.terms(cutoff, den)]
        return _from_int_keys(Unit.PLAIN, cutoff, entries, den)


def _lambda_series(n: int, p: int, coefficient, r_squared) -> _SeriesFormula:
    scale = Fraction(coefficient) / Fraction(r_squared)
    return _SeriesFormula(Series.LAMBDA, 1, scale, n, p, n - p - 1, n - p, n - 1)


def _mu_series(n: int, p: int, coefficient, r_squared) -> _SeriesFormula:
    scale = Fraction(coefficient) / Fraction(r_squared)
    return _SeriesFormula(Series.MU, 0, scale, n, p, n - p + 1, p, n)


def _scalar_series(n: int, coefficient, r_squared, series: Series) -> _SeriesFormula:
    """The lambda series' formula at p = 0, from k = 0: the functions."""
    scale = Fraction(coefficient) / Fraction(r_squared)
    return _SeriesFormula(series, 0, scale, n, 0, n - 1, n, n - 1)


def _series_of(op: SphereOperator, cutoff: Fraction) -> tuple[int, dict[Series, list]]:
    """The operator's series, each stepped once up to a checked ``cutoff``.

    Returns ``(den, {series: [(k, key, dim), ...]})`` with den the lcm of the
    series' scale denominators, so that every key is an integer over it, and
    each list sorted by key.  Lambda (beta side) is stepped before mu (alpha
    side).  p = 0 has only the beta-scaled scalar series, tagged lambda; p = n
    only the alpha-scaled one, tagged mu.
    """
    n, p, r_squared = op.n, op.p, op.r_squared
    if p == 0:
        formulas = (_scalar_series(n, op.beta, r_squared, Series.LAMBDA),)
    elif p == n:
        formulas = (_scalar_series(n, op.alpha, r_squared, Series.MU),)
    else:
        formulas = (_lambda_series(n, p, op.beta, r_squared), _mu_series(n, p, op.alpha, r_squared))
    den = lcm(*(formula.scale.denominator for formula in formulas))
    return den, {formula.series: list(formula.terms(cutoff, den)) for formula in formulas}


def lambda_k(op: SphereOperator, k: int) -> Fraction:
    """k-th eigenvalue of the beta series, k >= 1."""
    op._require_interior()
    if _int(k, "k") < 1:
        raise ValueError("lambda series starts at k = 1")
    return _lambda_series(op.n, op.p, op.beta, op.r_squared).value(k)


def mu_k(op: SphereOperator, k: int) -> Fraction:
    """k-th eigenvalue of the alpha series, k >= 0."""
    op._require_interior()
    if _int(k, "k") < 0:
        raise ValueError("mu series starts at k = 0")
    return _mu_series(op.n, op.p, op.alpha, op.r_squared).value(k)


def _parts(op: SphereOperator, cutoff: Fraction) -> tuple[int, list, list]:
    """Both parts as (integer key, dim) lists over one denominator.

    Returns ``(den, alpha_part, beta_part)``, each part sorted by key.
    """
    den, series = _series_of(op, cutoff)
    alpha_part, beta_part = (
        [(key, dim) for _, key, dim in series.get(side, ())] for side in (Series.MU, Series.LAMBDA)
    )
    if op.p == op.n:
        # Duality image of p = 0: the alpha-scaled scalar series; its zero
        # eigenvalue (the volume form, term k = 0) sits on the beta side.
        alpha_part, beta_part = alpha_part[1:], alpha_part[:1]
    return den, alpha_part, beta_part


def spectrum_parts(
    op: SphereOperator, cutoff
) -> tuple[WeightedSpectrum, WeightedSpectrum]:
    """(alpha part, beta part), each complete up to ``cutoff``, never merged."""
    return _operator_spectrum(Unit.PLAIN, _parts, op, cutoff)


def spectrum(op: SphereOperator, cutoff) -> WeightedSpectrum:
    """Merged spectrum on p-forms, truncated at ``cutoff``."""
    return _operator_spectrum(Unit.PLAIN, _parts, op, cutoff, "spectrum_parts")


@dataclass(frozen=True)
class SeriesTerm:
    series: Series
    k: int
    dim: int


@dataclass(frozen=True)
class SphereEigenvalue:
    """One merged eigenvalue with the series terms that meet there."""

    value: Fraction
    terms: tuple[SeriesTerm, ...]

    @property
    def multiplicity(self) -> int:
        return sum(term.dim for term in self.terms)


def eigenvalue_details(op: SphereOperator, cutoff) -> tuple[SphereEigenvalue, ...]:
    """Merged eigenvalues <= cutoff with their series bookkeeping."""
    if op.generic:
        raise ValueError("generic-mode operators do not merge series")
    den, series = _series_of(op, _nonnegative(cutoff))
    found: dict[int, list[SeriesTerm]] = {}
    for side, terms in series.items():
        for k, key, dim in terms:
            found.setdefault(key, []).append(SeriesTerm(side, k, dim))
    return tuple(
        SphereEigenvalue(Fraction(key, den), tuple(terms)) for key, terms in sorted(found.items())
    )


def coincidences(op: SphereOperator, cutoff) -> tuple[tuple[int, int], ...]:
    """Pairs (k, l) with lambda_k = mu_l <= cutoff; empty in generic mode."""
    cutoff = _nonnegative(cutoff)
    if op.generic or op.duality_extension:
        return ()
    _, series = _series_of(op, cutoff)
    # keys strictly increase in k, so each key names at most one mu term
    mu_at = {key: k for k, key, _ in series[Series.MU]}
    return tuple((k, mu_at[key]) for k, key, _ in series[Series.LAMBDA] if key in mu_at)
