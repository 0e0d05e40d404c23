"""Isospectrality verdicts, one tuple comparison of int entries, and constructive recovery.

The recovery routines run the uniqueness proofs forward as algorithms.
Every one of them works on truncated data and either finishes inside the
guaranteed region or refuses loudly: BranchAmbiguous when the leading
multiplicity matches no admissible case (the input cannot be a spectrum of
the promised shape), CutoffTooSmall when a removal step runs past the
truncation before the second parameter shows itself.  Torus and sphere
recovery are one walk, ``_recover_pair``, fed by the two parameters' shares
of the spectrum: the scaled scalar spectrum on a torus, the operator's own
eigenvalue series on a sphere.

``RecoveryResult.branch_trace`` records which proof branch actually fired,
so tests can demand that engineered inputs exercise every case.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import comb, lcm
from operator import ne
from typing import Callable

from .errors import (
    BranchAmbiguous,
    CutoffExceeded,
    CutoffTooSmall,
    EmptyInput,
    NonpositiveMin,
    NonpositiveScalar,
    NotInImage,
    UnitMismatch,
)
from .multiset import Unit, WeightedSpectrum, _from_int_keys
from .rationals import (
    _charge_comb, _degree, _echo_number, _int, _nonnegative, _positive, _Record, _set_field,
    format_rational,
)
from .sphere import Series, _series

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
]

BRANCH_ALPHA_FIRST = "alpha-series-first"
BRANCH_BETA_FIRST = "beta-series-first"
BRANCH_COINCIDENT = "series-coincide"
BRANCH_UNORDERED = "half-dimension-unordered"


class RecoveryResult(_Record):
    """Outcome of a parameter recovery run.

    kind "ordered": values = (alpha, beta).  kind "unordered": values is the
    sorted parameter pair that is only determined as a set.  That happens
    exactly when the two parameters' shares of the spectrum coincide, which
    is the half-dimension case n = 2p.
    """

    kind: str
    values: tuple[Fraction, ...]
    branch_trace: tuple[str, ...]

    def __init__(
        self, kind: str, values: tuple[Fraction, ...], branch_trace: tuple[str, ...]
    ) -> None:
        _set_field(self, "kind", kind)
        _set_field(self, "values", values)
        _set_field(self, "branch_trace", branch_trace)

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

    Both sides' int entries up to the bound, over the lcm of their
    denominators, are compared as tuples.  At the first index where they
    differ (or the shorter one ends) the smaller key is the divergence, as
    stored multiplicities are positive.  Both multiplicities are read at that
    index: the entries before it are equal and smaller, so a side whose entry
    there has another key, or that has ended, holds the divergent key 0
    times.  A negative bound is refused, like a negative cutoff.
    """
    left._require_same_unit(right)
    bound = _nonnegative(bound)
    if bound > left.cutoff or bound > right.cutoff:
        cutoffs = ", ".join(map(_echo_number, (left.cutoff, right.cutoff)))
        raise CutoffExceeded(f"comparison bound {_echo_number(bound)} exceeds a cutoff ({cutoffs})")
    den = lcm(left._den, right._den)
    a, b = (tuple(side._upto(bound, den)) for side in (left, right))
    if a == b:
        return None
    i = next(compress(range(len(a)), map(ne, a, b)), min(len(a), len(b)))  # the first difference
    key = min(side[i][0] for side in (a, b) if i < len(side))
    return Fraction(key, den), *(dict(side[i:i + 1]).get(key, 0) for side in (a, b))


def reconstruct_base(
    m_spec: WeightedSpectrum,
    alpha,
    beta,
    copies_alpha: int,
    copies_beta: int,
) -> WeightedSpectrum:
    """Recover C from ``copies_alpha * (alpha C) + copies_beta * (beta C)``.

    Repeatedly reads the smallest remaining key as min(alpha, beta) times
    the next element of C and removes both scaled copies.  Both removal keys
    are at least that smallest key, so one pass over the sorted keys finds
    every smallest key in turn.  That key holds copies of its element only,
    so one ceiling division by the copies that land on it counts the
    element.  The result is complete up to cutoff / max(alpha, beta), which
    is its cutoff.  Raises NotInImage as soon as a removal inside the
    guaranteed region fails.

    The work table holds the spectrum's int numerators over den, its
    denominator times the lcm of the denominators of alpha / low and
    beta / low, where low = min(alpha, beta).  The key K reads the element
    K / (den * low), and its removal keys K * alpha / low and K * beta / low
    are ints; one off the spectrum's grid is absent from the table, so its
    removal is refused.  The base set keeps the int keys K * low's
    denominator over den * low's numerator, and a Fraction is built only for
    a refusal's text.
    """
    alpha, beta = _positive(NonpositiveScalar, "alpha and beta", alpha, beta)
    if min(_int(copies_alpha, "copies_alpha"), _int(copies_beta, "copies_beta")) < 1:
        raise ValueError("copy counts must be positive")
    if m_spec.is_empty():
        raise EmptyInput("cannot reconstruct a base set from an empty spectrum")
    low, high = min(alpha, beta), max(alpha, beta)
    guarantee = m_spec.cutoff / high
    ratios = (alpha / low, copies_alpha), (beta / low, copies_beta)
    step = lcm(*(ratio.denominator for ratio, _ in ratios))
    den = m_spec._den * step
    work = dict(m_spec._upto(m_spec.cutoff, den))
    out: list[tuple[int, int]] = []
    # the keys whose element is at most the guarantee, read off before the peel
    for key, _ in m_spec._upto(low * guarantee, den):
        if not work[key]:  # exhausted along the way
            continue
        removals = [(key * ratio.numerator // ratio.denominator, copies) for ratio, copies in ratios]
        count = -(-work[key] // sum(copies for value, copies in removals if value == key))
        for value, copies in removals:
            needed, available = count * copies, work.get(value, 0)
            if available < needed:
                raise NotInImage(
                    f"removing {_echo_number(needed)} at key {_echo_number(Fraction(value, den))} "
                    f"but only {_echo_number(available)} present"
                )
            work[value] = available - needed
        out.append((key * low.denominator, count))
    return _from_int_keys(m_spec.unit, guarantee, out, den * low.numerator)


class _Share(_Record):
    """One parameter's part of a p-form spectrum, as a function of that parameter.

    At parameter value c the part starts at ``c * lead`` with multiplicity
    ``count``; ``spectrum(c)`` is the whole part.
    """

    lead: Fraction
    count: int
    spectrum: Callable[[Fraction], WeightedSpectrum]

    def __init__(
        self, lead: Fraction, count: int, spectrum: Callable[[Fraction], WeightedSpectrum]
    ) -> None:
        _set_field(self, "lead", lead)
        _set_field(self, "count", count)
        _set_field(self, "spectrum", spectrum)


def _recover_pair(spec: WeightedSpectrum, alpha: _Share, beta: _Share) -> RecoveryResult:
    """Read (alpha, beta) off the positive part of a p-form spectrum.

    The leading multiplicity names the share that starts the spectrum (both
    when they start together); removing that share leaves the other one's
    first key as the smallest remaining key.  The pair comes back unordered
    exactly when the two shares start alike, i.e. have equal ``(lead, count)``:
    then no spectrum can tell them apart.  On both surfaces that is n = 2p.
    A torus gives both shares the base's least positive key, with copy counts
    C(n-1, p-1) and C(n-1, p), which are equal only when n = 2p.  A sphere's
    leading dimensions dim_W(n, p, 0) = C(n+1, p) and dim_V(n, p, 1) =
    C(n+1, p+1) are equal only when n = 2p, and so are its leading values
    p(n-p+1) and (p+1)(n-p).
    """
    if spec.is_empty():
        raise CutoffTooSmall("spectrum shows no positive eigenvalue below the cutoff")
    lead_key, lead_mult = spec.min_entry()
    if lead_key <= 0:
        raise BranchAmbiguous(f"leading eigenvalue {lead_key} is not positive")

    def second(first: _Share, value: Fraction, other: _Share) -> Fraction:
        rest = spec.difference(first.spectrum(value))
        if rest.is_empty():
            raise CutoffTooSmall(
                "remaining spectrum is empty before the second parameter appears"
            )
        return rest.min_entry()[0] / other.lead

    if lead_mult == alpha.count:
        gamma = lead_key / alpha.lead
        values, branch = (gamma, second(alpha, gamma, beta)), BRANCH_ALPHA_FIRST
    elif lead_mult == beta.count:
        delta = lead_key / beta.lead
        values, branch = (second(beta, delta, alpha), delta), BRANCH_BETA_FIRST
    elif lead_mult == alpha.count + beta.count:
        values, branch = (lead_key / alpha.lead, lead_key / beta.lead), BRANCH_COINCIDENT
    else:
        raise BranchAmbiguous(
            f"leading multiplicity {_echo_number(lead_mult)} matches none of "
            + ", ".join(map(_echo_number, (alpha.count, beta.count, alpha.count + beta.count)))
        )
    if (alpha.lead, alpha.count) == (beta.lead, beta.count):
        return RecoveryResult("unordered", tuple(sorted(values)), (BRANCH_UNORDERED,))
    return RecoveryResult("ordered", values, (branch,))


def recover_torus_params(
    m_spec: WeightedSpectrum, base: WeightedSpectrum, n: int, p: int
) -> RecoveryResult:
    """Read (alpha, beta) off a torus p-form spectrum and its scalar spectrum.

    ``base`` is the scalar Laplace spectrum of the same torus.  For n = 2p
    the parameters are only determined as an unordered pair.  Degrees 0 and
    n are refused: there the spectrum depends on one parameter only.  The
    copy counts C(n-1, p-1) and C(n-1, p) are charged to HODGESPEC_BUDGET
    before they are computed.

    ``base`` is required because the p-form spectrum M alone fixes beta/alpha
    at most up to square factors.  At n = 2p, with k = C(n-1, p) copies in
    each share, ``reconstruct_base(M, 1, c**2, k, k)`` accepts M for every
    integer c >= 2, and its positive multiplicities are even, as those of a
    scalar spectrum are.  Proof: l -> c*l maps the dual vectors of norm q one
    to one into those of norm c^2 q, so M(c^2 x) >= M(x).  The alternating
    sum C(x) = sum_j (-1)^j M(x / c^(2j)) / k is therefore >= 0, and even
    for x > 0, since M(y) / k is a sum of scalar multiplicities, which pair
    l with -l.  C(x) + C(x / c^2) = M(x) / k, so M is k copies of C and k of
    c^2 C, and no removal step fails.
    """
    if m_spec.unit is not base.unit:
        raise UnitMismatch("p-form spectrum and scalar spectrum carry different units")
    _degree("torus recovery", n, p, 1)
    ints = [entry for entry in base._ints if entry[0]]  # the int entries without key 0
    if not ints:
        raise CutoffTooSmall("scalar spectrum shows no positive eigenvalue")

    def share(count: int) -> _Share:
        part = _from_int_keys(base.unit, base.cutoff, [(k, count * m) for k, m in ints], base._den)
        return _Share(*part.min_entry(), part.scale)

    _charge_comb(n - 1, p - 1)
    _charge_comb(n - 1, p)
    copies = comb(n - 1, p - 1), comb(n - 1, p)
    # Pascal's rule: the copy counts add up to the zero multiplicity C(n, p)
    zeros = _from_int_keys(m_spec.unit, m_spec.cutoff, ((0, sum(copies)),), 1)
    return _recover_pair(m_spec.difference(zeros), *map(share, copies))


def recover_sphere_params(
    m_spec: WeightedSpectrum, n: int, p: int, r_squared
) -> RecoveryResult:
    """Read (alpha, beta) off a sphere p-form spectrum with known radius."""
    if m_spec.unit is not Unit.PLAIN:
        raise UnitMismatch(f"sphere recovery needs a plain spectrum, got {m_spec.unit.value}")
    _degree("sphere recovery", n, p, 1)
    (r_squared,) = _positive(NonpositiveScalar, "r_squared", r_squared)

    def share(side: Series) -> _Share:
        first = _series(side, n, p, 1, r_squared)

        def spectrum(c: Fraction) -> WeightedSpectrum:
            return _series(side, n, p, c, r_squared).spectrum(m_spec.cutoff)

        return _Share(first.value(first.start), first.dim(first.start), spectrum)

    return _recover_pair(m_spec, share(Series.MU), share(Series.LAMBDA))


def recover_radius(alpha, beta, n: int, p: int, min_eigenvalue) -> Fraction:
    """Read r^2 off the smallest eigenvalue when (alpha, beta) are known.

    The smallest eigenvalue is the smaller of the two series' first values,
    and each of those is r^-2 times its value on the unit sphere.
    """
    _degree("radius recovery", n, p, 1)
    alpha, beta = _positive(NonpositiveScalar, "alpha and beta", alpha, beta)
    (min_eigenvalue,) = _positive(NonpositiveMin, "minimal eigenvalue", min_eigenvalue)
    leads = (_series(Series.MU, n, p, alpha, 1), _series(Series.LAMBDA, n, p, beta, 1))
    return min(series.value(series.start) for series in leads) / min_eigenvalue

