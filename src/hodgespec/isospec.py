"""Isospectrality verdicts and constructive parameter recovery.

The recovery routines run the uniqueness proofs forward as algorithms.
Every one of them works on truncated data and either finishes inside the
guaranteed region or refuses loudly: BranchAmbiguous when the leading
multiplicity matches no admissible case (the input cannot be a spectrum of
the promised shape), CutoffTooSmall when a removal step runs past the
truncation before the second parameter shows itself.

``RecoveryResult.branch_trace`` records which proof branch actually fired,
so tests can demand that engineered inputs exercise every case.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb
from operator import itemgetter

from .errors import (
    BranchAmbiguous,
    CutoffExceeded,
    CutoffTooSmall,
    DegreeOutOfRange,
    EmptyInput,
    NonpositiveMin,
    NonpositiveScalar,
    NotInImage,
    UnitMismatch,
)
from .multiset import WeightedSpectrum
from .rationals import format_rational
from .sphere import dim_V, dim_W, lambda_series_spectrum, mu_series_spectrum

__all__ = [
    "BRANCH_ALPHA_FIRST",
    "BRANCH_BETA_FIRST",
    "BRANCH_COINCIDENT",
    "BRANCH_UNORDERED",
    "RecoveryResult",
    "is_isospectral_upto",
    "first_divergence",
    "reconstruct_base",
    "recover_torus_params",
    "recover_sphere_params",
    "recover_radius",
    "scaling_transfer",
]

BRANCH_ALPHA_FIRST = "alpha-series-first"
BRANCH_BETA_FIRST = "beta-series-first"
BRANCH_COINCIDENT = "series-coincide"
BRANCH_UNORDERED = "half-dimension-unordered"


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of a parameter recovery run.

    kind "ordered": values = (alpha, beta).  kind "unordered": values is the
    sorted parameter pair that is only determined as a set (the half
    dimension case n = 2p).
    """

    kind: str
    values: tuple[Fraction, ...]
    branch_trace: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            self.kind: [format_rational(v) for v in self.values],
            "branch_trace": list(self.branch_trace),
        }


def is_isospectral_upto(left: WeightedSpectrum, right: WeightedSpectrum, bound) -> bool:
    """Exact multiset equality of eigenvalue keys on [0, bound]."""
    return first_divergence(left, right, bound) is None


def first_divergence(
    left: WeightedSpectrum, right: WeightedSpectrum, bound
) -> tuple[Fraction, int, int] | None:
    """Smallest key <= bound where multiplicities differ, or None.

    One lockstep walk over both entry lists: while the entries agree the
    keys line up, so the first disagreement is either one key with two
    multiplicities or the smaller key, missing from the other side.
    """
    left._require_same_unit(right)
    bound = Fraction(bound)
    if bound > left.cutoff or bound > right.cutoff:
        raise CutoffExceeded(
            f"comparison bound {bound} exceeds a cutoff ({left.cutoff}, {right.cutoff})"
        )
    upto = [
        spec.entries[: bisect_right(spec.entries, bound, key=itemgetter(0))]
        for spec in (left, right)
    ]
    past_bound = (bound + 1, 0)
    for (lk, lm), (rk, rm) in zip_longest(*upto, fillvalue=past_bound):
        if lk != rk:
            return (lk, lm, 0) if lk < rk else (rk, 0, rm)
        if lm != rm:
            return lk, lm, rm
    return None


def reconstruct_base(
    m_spec: WeightedSpectrum,
    alpha,
    beta,
    copies_alpha: int,
    copies_beta: int,
) -> WeightedSpectrum:
    """Recover C from ``copies_alpha * (alpha C) + copies_beta * (beta C)``.

    Repeatedly reads the smallest remaining key as min(alpha, beta) times
    the next element of C and removes both scaled copies.  The result is
    complete up to cutoff / max(alpha, beta), which is its cutoff.  Raises
    NotInImage as soon as a removal inside the guaranteed region fails.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha <= 0 or beta <= 0:
        raise NonpositiveScalar(f"alpha and beta must be positive, got {alpha}, {beta}")
    if copies_alpha < 1 or copies_beta < 1:
        raise ValueError("copy counts must be positive")
    if m_spec.is_empty():
        raise EmptyInput("cannot reconstruct a base set from an empty spectrum")
    low, high = min(alpha, beta), max(alpha, beta)
    guarantee = m_spec.cutoff / high
    work = {key: mult for key, mult in m_spec.entries}
    out: dict[Fraction, int] = {}
    while work:
        element = min(work) / low
        if element > guarantee:
            break
        for value, needed in ((alpha * element, copies_alpha), (beta * element, copies_beta)):
            available = work.get(value, 0)
            if available < needed:
                raise NotInImage(
                    f"removing {needed} at key {value} but only {available} present"
                )
            if available == needed:
                del work[value]
            else:
                work[value] = available - needed
        out[element] = out.get(element, 0) + 1
    return WeightedSpectrum.from_pairs(m_spec.unit, guarantee, out.items())


def _strip_key(spec: WeightedSpectrum, key, count: int) -> WeightedSpectrum:
    single = WeightedSpectrum.from_pairs(spec.unit, spec.cutoff, [(Fraction(key), count)])
    return spec.difference(single)


def _remove_scaled_copies(
    m_spec: WeightedSpectrum, base: WeightedSpectrum, coefficient: Fraction, copies: int
) -> WeightedSpectrum:
    scaled = base.scale(coefficient)
    block = tuple((key, copies * mult) for key, mult in scaled.entries)
    return m_spec.difference(WeightedSpectrum(scaled.unit, scaled.cutoff, block))


def recover_torus_params(
    m_spec: WeightedSpectrum, base: WeightedSpectrum, n: int, p: int
) -> RecoveryResult:
    """Read (alpha, beta) off a torus p-form spectrum and its scalar spectrum.

    ``base`` is the scalar Laplace spectrum of the same torus.  For n = 2p
    the parameters are only determined as an unordered pair.  Degrees 0 and
    n are refused: there the spectrum depends on one parameter only.
    """
    if m_spec.unit is not base.unit:
        raise UnitMismatch("p-form spectrum and scalar spectrum carry different units")
    if not 1 <= p <= n - 1:
        raise DegreeOutOfRange(
            f"both parameters are visible only for 1 <= p <= n-1, got p={p}, n={n}"
        )
    alpha_copies = comb(n - 1, p - 1)
    beta_copies = comb(n - 1, p)
    zero_mult = comb(n, p)

    positive = [(key, mult) for key, mult in base.entries if key > 0]
    if not positive:
        raise CutoffTooSmall("scalar spectrum shows no positive eigenvalue")
    first_norm, first_count = positive[0]

    stripped = _strip_key(m_spec, 0, zero_mult)
    if stripped.is_empty():
        raise CutoffTooSmall("p-form spectrum shows no positive eigenvalue")
    lead_key, lead_mult = stripped.min_entry()

    def second_parameter(first: Fraction, removed_copies: int, zero_left: int) -> Fraction:
        rest = _remove_scaled_copies(m_spec, base, first, removed_copies)
        rest = _strip_key(rest, 0, zero_left)
        if rest.is_empty():
            raise CutoffTooSmall(
                "remaining spectrum is empty before the second parameter appears"
            )
        return rest.min_entry()[0] / first_norm

    if n == 2 * p:
        if lead_mult not in (alpha_copies * first_count, 2 * alpha_copies * first_count):
            raise BranchAmbiguous(
                f"leading multiplicity {lead_mult} fits no half-dimension case"
            )
        gamma = lead_key / first_norm
        delta = second_parameter(gamma, alpha_copies, alpha_copies)
        pair = tuple(sorted((gamma, delta)))
        return RecoveryResult("unordered", pair, (BRANCH_UNORDERED,))

    if lead_mult == alpha_copies * first_count:
        gamma = lead_key / first_norm
        delta = second_parameter(gamma, alpha_copies, beta_copies)
        return RecoveryResult("ordered", (gamma, delta), (BRANCH_ALPHA_FIRST,))
    if lead_mult == beta_copies * first_count:
        delta = lead_key / first_norm
        gamma = second_parameter(delta, beta_copies, alpha_copies)
        return RecoveryResult("ordered", (gamma, delta), (BRANCH_BETA_FIRST,))
    if lead_mult == zero_mult * first_count:
        value = lead_key / first_norm
        return RecoveryResult("ordered", (value, value), (BRANCH_COINCIDENT,))
    raise BranchAmbiguous(
        f"leading multiplicity {lead_mult} matches none of "
        f"{alpha_copies * first_count}, {beta_copies * first_count}, "
        f"{zero_mult * first_count}"
    )


def recover_sphere_params(
    m_spec: WeightedSpectrum, n: int, p: int, r_squared
) -> RecoveryResult:
    """Read (alpha, beta) off a sphere p-form spectrum with known radius."""
    if not 1 <= p <= n - 1:
        raise DegreeOutOfRange(
            f"sphere recovery needs 1 <= p <= n-1, got p={p}, n={n}"
        )
    r_squared = Fraction(r_squared)
    if r_squared <= 0:
        raise NonpositiveScalar(f"r_squared must be positive, got {r_squared}")
    beta_weight = (p + 1) * (n - p)  # first beta-series eigenvalue is beta*this/r^2
    alpha_weight = p * (n - p + 1)  # first alpha-series eigenvalue is alpha*this/r^2
    first_v = dim_V(n, p, 1)
    first_w = dim_W(n, p, 0)

    if m_spec.is_empty():
        raise CutoffTooSmall("sphere spectrum shows no eigenvalue below the cutoff")
    lead_key, lead_mult = m_spec.min_entry()
    if lead_key <= 0:
        raise BranchAmbiguous(f"leading eigenvalue {lead_key} is not positive")

    def after_removal(series_spectrum, coefficient: Fraction) -> Fraction:
        series = series_spectrum(n, p, coefficient, r_squared, m_spec.cutoff, m_spec.unit)
        rest = m_spec.difference(series)
        if rest.is_empty():
            raise CutoffTooSmall(
                "remaining spectrum is empty before the second parameter appears"
            )
        return rest.min_entry()[0]

    if n == 2 * p:
        if lead_mult not in (first_w, 2 * first_w):
            raise BranchAmbiguous(
                f"leading multiplicity {lead_mult} fits no half-dimension case"
            )
        gamma = r_squared * lead_key / alpha_weight
        second = after_removal(mu_series_spectrum, gamma)
        delta = r_squared * second / alpha_weight
        pair = tuple(sorted((gamma, delta)))
        return RecoveryResult("unordered", pair, (BRANCH_UNORDERED,))

    if lead_mult == first_v:
        delta = r_squared * lead_key / beta_weight
        second = after_removal(lambda_series_spectrum, delta)
        gamma = r_squared * second / alpha_weight
        return RecoveryResult("ordered", (gamma, delta), (BRANCH_BETA_FIRST,))
    if lead_mult == first_w:
        gamma = r_squared * lead_key / alpha_weight
        second = after_removal(mu_series_spectrum, gamma)
        delta = r_squared * second / beta_weight
        return RecoveryResult("ordered", (gamma, delta), (BRANCH_ALPHA_FIRST,))
    if lead_mult == first_v + first_w:
        gamma = r_squared * lead_key / alpha_weight
        delta = r_squared * lead_key / beta_weight
        return RecoveryResult("ordered", (gamma, delta), (BRANCH_COINCIDENT,))
    raise BranchAmbiguous(
        f"leading multiplicity {lead_mult} matches none of "
        f"{first_v}, {first_w}, {first_v + first_w}"
    )


def recover_radius(alpha, beta, n: int, p: int, min_eigenvalue) -> Fraction:
    """Read r^2 off the smallest eigenvalue when (alpha, beta) are known.

    The smaller of the two leading series values determines which formula
    applies: alpha/beta >= (p+1)(n-p) / (p(n-p+1)) means the beta series
    leads.  At equality both formulas agree.
    """
    if not 1 <= p <= n - 1:
        raise DegreeOutOfRange(f"radius recovery needs 1 <= p <= n-1, got p={p}, n={n}")
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha <= 0 or beta <= 0:
        raise NonpositiveScalar(f"alpha and beta must be positive, got {alpha}, {beta}")
    min_eigenvalue = Fraction(min_eigenvalue)
    if min_eigenvalue <= 0:
        raise NonpositiveMin(f"minimal eigenvalue must be positive, got {min_eigenvalue}")
    beta_weight = (p + 1) * (n - p)
    alpha_weight = p * (n - p + 1)
    if alpha * alpha_weight >= beta * beta_weight:
        return beta * beta_weight / min_eigenvalue
    return alpha * alpha_weight / min_eigenvalue


def scaling_transfer(alpha, beta, factor) -> tuple[Fraction, Fraction]:
    """Parameter change matching the metric scaling by ``factor``."""
    alpha, beta, factor = Fraction(alpha), Fraction(beta), Fraction(factor)
    if factor == 0:
        raise NonpositiveScalar("scaling factor must be nonzero")
    return factor * factor * alpha, factor * factor * beta
