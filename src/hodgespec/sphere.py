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
integer.  The series are cut at floor(cutoff * den), each into one list of
(key, dim) pairs that the merge reads without a copy, merged and matched as
integers, and the spectrum keeps the int keys over den, as the torus norm
tables do.  Past the constants' zero a dimension is a polynomial of degree
n-1 in j.  A series steps its first n terms (all of them above a crossover
in n) by exact integer ratios, each division's remainder checked in line;
every later dimension is built by addition from those n seeds' difference
table, and the last one is checked against the closed form.  Keys are built
by addition.  ``dim_V``, ``dim_W`` and ``harmonic_polynomial_dim`` read the
first term of the series from k on, a division-checked seed, so one path
computes every dimension.  The budget is charged for the size of those
binomials before any term is made, through ``rationals._charge``: a series
pays its term count times their width, and each binomial it starts from
pays ``_charge_comb``.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import comb, isqrt, lcm
from operator import sub
from typing import Iterator

from .errors import NonpositiveScalar
from .multiset import Unit, WeightedSpectrum, _from_int_keys, _operator_spectrum
from .rationals import (
    _charge, _charge_comb, _degree, _echo_number, _int, _nonnegative, _positive, _Record,
    _set_field,
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
        _set_field(self, "n", n)
        _set_field(self, "p", p)
        _set_field(self, "alpha", alpha)
        _set_field(self, "beta", beta)
        _set_field(self, "r_squared", r_squared)
        _set_field(self, "generic", generic)

    @property
    def duality_extension(self) -> bool:
        """True on the degrees handled via duality (p = 0 and p = n)."""
        return self.p == 0 or self.p == self.n


def _wrong_dimension(formula: "_SeriesFormula", k: int, outcome: str) -> AssertionError:
    """The error of the series' dimension at term k, which came out ``outcome``."""
    return AssertionError(
        f"{formula.series.value} dimension at n={formula.n}, k={k} came out {outcome}"
    )


def _non_integral(
    formula: "_SeriesFormula", k: int, numerator: int, denominator: int
) -> AssertionError:
    """The error of a step of the series' dimension at term k that left a remainder."""
    return _wrong_dimension(formula, k, f"non-integral: {Fraction(numerator, denominator)}")


# The largest n whose series build their dimensions by differences.  Timed
# for every n from 1 to 48, ns per term of a 300-term mu series (q = n // 2),
# best of 5, Python 3.11.7 on a shared 2-core Xeon, division loop ->
# differences: n = 1: 372 -> 93, 2: 423 -> 152, 4: 368 -> 218,
# 8: 428 -> 286, 10: 435 -> 352, 11: 425 -> 374, 12: 414 -> 404 (break-even),
# 13: 431 -> 457, 16: 434 -> 591, 24: 516 -> 1068, 48: 433 -> 1888.  A
# table costs a fixed few microseconds, so shorter series break even lower:
# at 120 terms differences take 0.87 of the loop's time at n = 9, 0.96 at
# n = 10 and 1.06 at n = 11.
_N0 = 10


def _tabulated(seeds: list[int], count: int) -> Iterator[int]:
    """``count`` values of the polynomial of degree len(seeds) - 1 through ``seeds``.

    The seeds' difference table has len(seeds) - 1 rows below them; its
    leading diagonal starts one ``accumulate`` level per row over the
    constant top difference, so each value past the seeds costs one addition
    per level.
    """
    diagonal = [seeds[0]]
    for _ in range(len(seeds) - 1):
        seeds = [*map(sub, islice(seeds, 1, None), seeds)]
        diagonal.append(seeds[0])
    values = repeat(diagonal.pop(), count - len(diagonal))
    for start in reversed(diagonal):
        values = accumulate(values, initial=start)
    return values


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
        _set_field(self, "series", series)
        _set_field(self, "start", start)
        _set_field(self, "shift", shift)
        _set_field(self, "scale", scale)
        _set_field(self, "n", n)
        _set_field(self, "q", q)

    def value(self, k: int) -> Fraction:
        j, q, scale = k - self.shift, self.q, self.scale
        return Fraction(scale.numerator * (j + q) * (j + self.n - q + 1), scale.denominator)

    def dim(self, k: int) -> int:
        """The dimension of term k: the first term of the series from k on, charged as one."""
        first = _SeriesFormula(self.series, k, self.shift, self.scale, self.n, self.q)
        _, [(_, dim)] = first.terms(self.value(k), self.scale.denominator)
        return dim

    def terms(self, cutoff: Fraction, den: int) -> tuple[int, list[tuple[int, int]]]:
        """``(start, pairs)``: (key, dim) of every term with value(k) = key / den <= cutoff.

        Term k is ``pairs[k - start]``.  ``den`` is a multiple of the scale's
        denominator, so the key is the integer factor * (j+q)(j+b) with
        factor = scale * den and b = n-q+1.
        value(k) <= cutoff exactly when (j+q)(j+b) <= m = floor(cutoff/scale),
        and 4(j+q)(j+b) = (2j+q+b)^2 - (q-b)^2 names the last such j.

        Every term is charged to HODGESPEC_BUDGET before any term is made.
        Each costs 1 + min(n, last k) + min(q, n-q), which bounds the smaller
        sides of C(j+n, n) and C(n, q), so the size of the dimension.  A
        second charge, before any term too, costs each term its key's
        bits >> 10, the unit of the CLI's decimal-write charge, from the bound
        bits(factor) + 2 bits(last + n + 1) on the bits of a key
        factor * (j+q)(j+b); keys under 1024 bits are free and skip it.  The two
        binomials the stepping starts from are charged too
        (``rationals._charge_comb``), since ``comb`` takes more than linear time
        in the smaller side.  The boundary zero comes first.

        From j >= 0 on, the dimension is a polynomial of degree n-1 in j:
        (j+q) and (j+b) are both among the factors (j+1)...(j+n) of
        n! C(j+n, n), and they are distinct unless n = 2q-1, where
        2j+n+1 = 2(j+q) supplies the second one.  So n exact values fix every
        later one.  The first min(n, count) terms, the seeds, are stepped by
        exact division: the dimension and the binomial step
        C(j+n, n) = C(j-1+n, n) * (j+n) / j are divmods whose remainder is
        checked in line; a nonzero one raises an AssertionError naming the
        series, n, k and the fraction.  Every later dimension is built by
        addition, n-1 integer additions per term, from the leading diagonal of
        the seeds' difference table (``_tabulated``), and the last one is
        checked once against the closed form, a mismatch raising an
        AssertionError naming the series, n and k.  The term charge counts at
        least n-1 units per term whenever the table is used, so it still
        bounds the work.  Differences pay only while n <= ``_N0``; above it
        the division loop runs for every term.  The keys are built by
        addition too: q + b = n + 1, so (j+q)(j+b) rises by 2j+n+2 from j
        to j+1.
        """
        n, q, shift = self.n, self.q, self.shift
        b = n - q + 1
        factor = self.scale.numerator * (den // self.scale.denominator)
        # floor(cutoff/scale) = floor(floor(cutoff * den) / factor)
        m = den * cutoff.numerator // cutoff.denominator // factor
        first, pairs = self.start - shift, []
        if m < (first + q) * (first + b):
            return self.start, pairs
        last = (isqrt(4 * m + (q - b) ** 2) - q - b) // 2
        count, width = last + 1 - first, 1 + min(n, last + shift) + min(q, n - q)
        _charge(count * width, lambda: f"sphere dimensions need {_echo_number(count)} terms "
                f"times {_echo_number(width)} work")
        if bits := (factor.bit_length() + 2 * (last + n + 1).bit_length()) >> 10:
            _charge(count * bits, lambda: f"sphere keys need {_echo_number(count * bits)} work")
        _charge_comb(n, q)
        _charge_comb(max(first, 0) + n, n)
        if first < 0:
            pairs.append((0, 1))
            first, count = 0, count - 1
        seeded = first + (min(n, count) if n <= _N0 else count)  # i = j + 1 of the last seed
        leading, dims = comb(n, q) * q, []
        binomials = leading * comb(first + n, n)
        quadratic, linear, append = (first + q) * (first + b), 2 * first + n + 1, dims.append
        for i in range(first + 1, seeded + 1):  # i = j + 1
            dim, remainder = divmod(binomials * linear, quadratic)
            if remainder:
                raise _non_integral(self, i - 1 + shift, binomials * linear, quadratic)
            append(dim)
            if i == seeded:  # no step past the last seed: dim(k) checks its own steps only
                break
            stepped, remainder = divmod(binomials * (i + n), i)
            if remainder:
                raise _non_integral(self, i + shift, binomials * (i + n), i)
            binomials = stepped
            quadratic += linear + 1
            linear += 2
        keys = accumulate(range(factor * (2 * first + n + 2), factor * (2 * last + n + 2),
                                2 * factor), initial=factor * (first + q) * (first + b))
        seeds = len(dims)
        pairs += zip(keys, dims if seeds == count else _tabulated(dims, count))
        if seeds < count:
            numerator = leading * comb(last + n, n) * (2 * last + n + 1)
            quadratic = (last + q) * (last + b)
            if pairs[-1][1] * quadratic != numerator:
                raise _wrong_dimension(self, last + shift, f"{pairs[-1][1]} by differences, "
                                       f"not {Fraction(numerator, quadratic)}")
        return self.start, pairs

    def spectrum(self, cutoff: Fraction) -> WeightedSpectrum:
        den = self.scale.denominator
        return _from_int_keys(Unit.PLAIN, cutoff, self.terms(cutoff, den)[1], den)


def _series(side: Series, n: int, p: int, coefficient, r_squared) -> _SeriesFormula:
    """The ``side`` series of p-forms on S^n: the mu series of q-forms.

    Mu is q = p from k = 0; lambda is q = n-p one index on, from k = 1.
    Where q = n (lambda at p = 0, mu at p = n) it is the scalar series, one
    index on, after the constants' zero at k = 0.
    """
    scale = Fraction(coefficient.numerator * r_squared.denominator,
                     coefficient.denominator * r_squared.numerator)
    q, shift = (n - p, 1) if side is Series.LAMBDA else (p, 0)
    if q == n:
        return _SeriesFormula(side, 0, 1, scale, n, n)
    return _SeriesFormula(side, shift, shift, scale, n, q)


def _series_of(op: SphereOperator, cutoff: Fraction) -> tuple[int, dict[Series, list]]:
    """The operator's series, each stepped once up to a checked ``cutoff``.

    Returns ``(den, {series: (start, [(key, dim), ...])})`` with den the lcm
    of the series' scale denominators, so that every key is an integer over
    it, and each list sorted by key.  Lambda (beta side, the co-exact forms,
    for p < n) is stepped before mu (alpha side, the exact forms, for p > 0).
    """
    n, p = op.n, op.p
    sides = ((Series.LAMBDA, op.beta, p < n), (Series.MU, op.alpha, p > 0))
    formulas = [_series(side, n, p, c, op.r_squared) for side, c, present in sides if present]
    den = lcm(*(formula.scale.denominator for formula in formulas))
    return den, {formula.series: formula.terms(cutoff, den) for formula in formulas}


def lambda_k(op: SphereOperator, k: int) -> Fraction:
    """k-th eigenvalue of the beta series, k >= 1."""
    _degree("series formulas", op.n, op.p, 1)
    if _int(k, "k") < 1:
        raise ValueError("lambda series starts at k = 1")
    return _series(Series.LAMBDA, op.n, op.p, op.beta, op.r_squared).value(k)


def mu_k(op: SphereOperator, k: int) -> Fraction:
    """k-th eigenvalue of the alpha series, k >= 0."""
    _degree("series formulas", op.n, op.p, 1)
    if _int(k, "k") < 0:
        raise ValueError("mu series starts at k = 0")
    return _series(Series.MU, op.n, op.p, op.alpha, op.r_squared).value(k)


def _parts(op: SphereOperator, cutoff: Fraction) -> tuple[int, list, list]:
    """Both parts as (integer key, dim) lists over one denominator.

    Returns ``(den, alpha_part, beta_part)``, each part sorted by key.
    """
    den, series = _series_of(op, cutoff)
    alpha_part, beta_part = (series.get(side, (0, []))[1] for side in (Series.MU, Series.LAMBDA))
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
        _set_field(self, "series", series)
        _set_field(self, "k", k)
        _set_field(self, "dim", dim)


class SphereEigenvalue(_Record):
    """One merged eigenvalue with the series terms that meet there."""

    value: Fraction
    terms: tuple[SeriesTerm, ...]

    def __init__(self, value: Fraction, terms: tuple[SeriesTerm, ...]) -> None:
        _set_field(self, "value", value)
        _set_field(self, "terms", terms)

    @property
    def multiplicity(self) -> int:
        return sum(term.dim for term in self.terms)


def eigenvalue_details(op: SphereOperator, cutoff) -> tuple[SphereEigenvalue, ...]:
    """Merged eigenvalues <= cutoff with their series bookkeeping."""
    if op.generic:
        raise ValueError("generic-mode operators do not merge series")
    den, series = _series_of(op, _nonnegative(cutoff))
    found: dict[int, list[SeriesTerm]] = {}
    for side, (start, pairs) in series.items():
        for k, (key, dim) in enumerate(pairs, start):
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
    (mu_start, mu), (lambda_start, lam) = series[Series.MU], series[Series.LAMBDA]
    mu_at = {key: k for k, (key, _) in enumerate(mu, mu_start)}
    return tuple((k, mu_at[key]) for k, (key, _) in enumerate(lam, lambda_start) if key in mu_at)
