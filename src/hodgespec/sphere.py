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

The Hodge star takes the co-exact p-forms to the exact (n-p)-forms, so
lambda_k on p-forms is mu_{k-1} on (n-p)-forms: every series is the mu
series of one degree q at scale coefficient / r^2, read at j = k - shift
(mu: q = p, shift 0; lambda: q = n-p, shift 1), with term k of value
scale * (j+q)(j+n-q+1) and dimension

    C(n, q) * q * C(j+n, n) * (2j+n+1) / ((j+q)(j+n-q+1)).

The scalar series (lambda at p = 0, mu at p = n) is q = n, shift 1, from
k = 0: at j = -1 the quadratic vanishes, and that term is the zero
eigenvalue of the constants (the volume form at p = n), of dimension 1.

Over den, the lcm of the operator's scale denominators, every key is an
integer.  The series are cut at floor(cutoff * den), merged and matched as
integers, and the spectrum keeps the int keys over den, as the torus norm
tables do.  A series steps C(j+n, n) from one term to the next by exact
integer ratios, each checked in line, and its quadratic by addition;
``dim_V``, ``dim_W`` and ``harmonic_polynomial_dim`` read the first term of
the series from k on, so one path computes every dimension.  The budget
is charged for the size of those binomials before any term is made, through
``rationals._charge``: a series pays its term count times their width, and
each binomial it starts from pays ``_charge_comb``.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import comb, isqrt, lcm
from typing import Iterator

from .errors import NonpositiveScalar
from .multiset import Unit, WeightedSpectrum, _from_int_keys, _operator_spectrum
from .rationals import (
    _charge, _charge_comb, _degree, _echo_number, _int, _nonnegative, _positive, _Record,
)

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


class SphereOperator(_Record):
    """alpha d delta + beta delta d on p-forms of S^n with squared radius r_squared."""

    n: int
    p: int
    alpha: Fraction
    beta: Fraction
    r_squared: Fraction
    generic: bool

    def __init__(
        self,
        n: int,
        p: int,
        alpha: Fraction,
        beta: Fraction,
        r_squared: Fraction = Fraction(1),
        generic: bool = False,
    ) -> None:
        if type(n) is int and n < 1:
            raise ValueError(f"sphere dimension must be at least 1, got {_echo_number(n)}")
        _degree("sphere operator", n, p, 0)
        alpha, beta, r_squared = _positive(
            NonpositiveScalar, "alpha, beta, r_squared", alpha, beta, r_squared
        )
        vars(self).update(n=n, p=p, alpha=alpha, beta=beta, r_squared=r_squared, generic=generic)

    @property
    def duality_extension(self) -> bool:
        """True on the degrees handled via duality (p = 0 and p = n)."""
        return self.p == 0 or self.p == self.n

    def _require_interior(self) -> None:
        _degree("series formulas", self.n, self.p, 1)


def _non_integral(
    formula: "_SeriesFormula", k: int, numerator: int, denominator: int
) -> AssertionError:
    """The error of a step of the series' dimension at term k that left a remainder."""
    return AssertionError(
        f"{formula.series.value} dimension at n={formula.n}, k={k} came out "
        f"non-integral: {Fraction(numerator, denominator)}"
    )


def dim_V(n: int, p: int, k: int) -> int:
    """Dimension of the k-th eigenspace on the lambda side (zero at k = 0)."""
    _degree("dim_V", n, p, 1)
    if _int(k, "k") < 0:
        raise ValueError("k must be nonnegative")
    return _series(Series.LAMBDA, n, p, 1, 1).dim(k) if k else 0


def dim_W(n: int, p: int, k: int) -> int:
    """Dimension of the k-th eigenspace on the mu side (defined for k >= 0)."""
    _degree("dim_W", n, p, 1)
    if _int(k, "k") < 0:
        raise ValueError("k must be nonnegative")
    return _series(Series.MU, n, p, 1, 1).dim(k)


def harmonic_polynomial_dim(nvars: int, degree: int) -> int:
    """Dimension of harmonic homogeneous polynomials of a given degree.

    The scalar series of S^(nvars-1).  On R^1 (S^0) only 1 and x are
    harmonic, so the dimensions are 1, 1, 0, 0, ...
    """
    nvars, degree = _int(nvars, "nvars"), _int(degree, "degree")
    if nvars < 1 or degree < 0:
        raise ValueError("need nvars >= 1 and degree >= 0")
    if nvars == 1:
        return int(degree <= 1)
    return _series(Series.LAMBDA, nvars - 1, 0, 1, 1).dim(degree)


class _SeriesFormula(_Record):
    """The mu series of q-forms on S^n, as ``series``: terms k >= start, at j = k - shift.

    value(k) = scale (j+q)(j+n-q+1), with ``scale`` the coefficient over r^2,
    both positive (``_series`` takes checked values).  Values strictly
    increase in k, so the terms come out as sorted entries.  Term k has the
    dimension C(n, q) q C(j+n, n) (2j+n+1) / ((j+q)(j+n-q+1)) (Ikeda &
    Taniguchi) unless j = -1: only the scalar series (q = n) starts there,
    where (j+q)(j+n-q+1) vanishes, with the constants' zero of dimension 1.
    """

    series: Series
    start: int
    shift: int
    scale: Fraction
    n: int
    q: int

    def __init__(
        self, series: Series, start: int, shift: int, scale: Fraction, n: int, q: int
    ) -> None:
        vars(self).update(series=series, start=start, shift=shift, scale=scale, n=n, q=q)

    def value(self, k: int) -> Fraction:
        j, q, scale = k - self.shift, self.q, self.scale
        return Fraction(scale.numerator * (j + q) * (j + self.n - q + 1), scale.denominator)

    def dim(self, k: int) -> int:
        """The dimension of term k: the first term of the series from k on, charged as one."""
        first = _SeriesFormula(self.series, k, self.shift, self.scale, self.n, self.q)
        _, _, dim = next(first.terms(self.value(k), self.scale.denominator))
        return dim

    def terms(self, cutoff: Fraction, den: int) -> Iterator[tuple[int, int, int]]:
        """(k, key, dim) of every term with value(k) = key / den <= cutoff.

        ``den`` is a multiple of the scale's denominator, so the key is the
        integer factor * (j+q)(j+b) with factor = scale * den and b = n-q+1.
        value(k) <= cutoff exactly when (j+q)(j+b) <= m = floor(cutoff/scale),
        and 4(j+q)(j+b) = (2j+q+b)^2 - (q-b)^2 names the last such j.

        Every term is charged to HODGESPEC_BUDGET before any term is made.
        Each costs 1 + min(n, last k) + min(q, n-q), which bounds the smaller
        sides of C(j+n, n) and C(n, q), so the size of the dimension.  The two
        binomials the stepping starts from are charged too
        (``rationals._charge_comb``), since ``comb`` takes more than linear time
        in the smaller side.  The boundary zero comes first.  From then on k,
        2j+n+1 and the quadratic are stepped by addition: q + b = n + 1, so
        (j+q)(j+b) rises by 2j+n+2 from j to j+1.  Both exact divisions, the
        dimension and the binomial step C(j+n, n) = C(j-1+n, n) * (j+n) / j,
        are divmods whose remainder is checked in line at every term; a
        nonzero one raises an AssertionError naming the series, n, k and the
        fraction.
        """
        n, q, shift = self.n, self.q, self.shift
        b = n - q + 1
        factor = self.scale.numerator * (den // self.scale.denominator)
        # floor(cutoff/scale) = floor(floor(cutoff * den) / factor)
        m = den * cutoff.numerator // cutoff.denominator // factor
        first = self.start - shift
        if m < (first + q) * (first + b):
            return
        last = (isqrt(4 * m + (q - b) ** 2) - q - b) // 2
        count, width = last + 1 - first, 1 + min(n, last + shift) + min(q, n - q)
        _charge(count * width, lambda: f"sphere dimensions need {_echo_number(count)} terms "
                f"times {_echo_number(width)} work")
        _charge_comb(n, q)
        _charge_comb(max(first, 0) + n, n)
        if first < 0:
            yield self.start, 0, 1
            first = 0
        binomials = comb(n, q) * q * comb(first + n, n)
        k, quadratic, linear = first + shift, (first + q) * (first + b), 2 * first + n + 1
        for i in range(first + 1, last + 2):  # i = j + 1
            dim, remainder = divmod(binomials * linear, quadratic)
            if remainder:
                raise _non_integral(self, k, binomials * linear, quadratic)
            yield k, factor * quadratic, dim
            k += 1
            stepped, remainder = divmod(binomials * (i + n), i)
            if remainder:
                raise _non_integral(self, k, binomials * (i + n), i)
            binomials = stepped
            quadratic += linear + 1
            linear += 2

    def spectrum(self, cutoff: Fraction) -> WeightedSpectrum:
        den = self.scale.denominator
        entries = [(key, dim) for _, key, dim in self.terms(cutoff, den)]
        return _from_int_keys(Unit.PLAIN, cutoff, entries, den)


def _series(side: Series, n: int, p: int, coefficient, r_squared) -> _SeriesFormula:
    """The ``side`` series of p-forms on S^n: the mu series of q-forms.

    Mu is q = p from k = 0; lambda is q = n-p one index on, from k = 1.
    Where q = n (lambda at p = 0, mu at p = n) it is the scalar series, one
    index on, after the constants' zero at k = 0.
    """
    scale = Fraction(coefficient) / Fraction(r_squared)
    q, shift = (n - p, 1) if side is Series.LAMBDA else (p, 0)
    if q == n:
        return _SeriesFormula(side, 0, 1, scale, n, n)
    return _SeriesFormula(side, shift, shift, scale, n, q)


def _series_of(op: SphereOperator, cutoff: Fraction) -> tuple[int, dict[Series, list]]:
    """The operator's series, each stepped once up to a checked ``cutoff``.

    Returns ``(den, {series: [(k, key, dim), ...]})`` with den the lcm of the
    series' scale denominators, so that every key is an integer over it, and
    each list sorted by key.  Lambda (beta side, the co-exact forms, for
    p < n) is stepped before mu (alpha side, the exact forms, for p > 0).
    """
    n, p = op.n, op.p
    sides = ((Series.LAMBDA, op.beta, p < n), (Series.MU, op.alpha, p > 0))
    formulas = [_series(side, n, p, c, op.r_squared) for side, c, present in sides if present]
    den = lcm(*(formula.scale.denominator for formula in formulas))
    return den, {formula.series: list(formula.terms(cutoff, den)) for formula in formulas}


def lambda_k(op: SphereOperator, k: int) -> Fraction:
    """k-th eigenvalue of the beta series, k >= 1."""
    op._require_interior()
    if _int(k, "k") < 1:
        raise ValueError("lambda series starts at k = 1")
    return _series(Series.LAMBDA, op.n, op.p, op.beta, op.r_squared).value(k)


def mu_k(op: SphereOperator, k: int) -> Fraction:
    """k-th eigenvalue of the alpha series, k >= 0."""
    op._require_interior()
    if _int(k, "k") < 0:
        raise ValueError("mu series starts at k = 0")
    return _series(Series.MU, op.n, op.p, op.alpha, op.r_squared).value(k)


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
    """(alpha part, beta part), each complete up to ``cutoff``, never merged.

    At p = n the zero eigenvalue (the volume form) sits in the beta part,
    although a torus puts it in the alpha part and ``eigenvalue_details``
    tags it mu.  It stays there because two records pin it: the golden run
    ``sphere_n3_p3_generic`` and the closed-form reference ``sphere_parts``
    in ``perfbench/workloads.py``.
    """
    return _operator_spectrum(Unit.PLAIN, _parts, op, cutoff)


def spectrum(op: SphereOperator, cutoff) -> WeightedSpectrum:
    """Merged spectrum on p-forms, truncated at ``cutoff``."""
    return _operator_spectrum(Unit.PLAIN, _parts, op, cutoff, "spectrum_parts")


class SeriesTerm(_Record):
    """One series term at a merged eigenvalue: term k of ``series``, of dimension ``dim``."""

    series: Series
    k: int
    dim: int

    def __init__(self, series: Series, k: int, dim: int) -> None:
        vars(self).update(series=series, k=k, dim=dim)


class SphereEigenvalue(_Record):
    """One merged eigenvalue with the series terms that meet there."""

    value: Fraction
    terms: tuple[SeriesTerm, ...]

    def __init__(self, value: Fraction, terms: tuple[SeriesTerm, ...]) -> None:
        vars(self).update(value=value, terms=terms)

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
