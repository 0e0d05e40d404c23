"""Spectra of alpha d delta + beta delta d on flat tori R^n / Lambda.

Keys live in the FOUR_PI_SQUARED unit: the true eigenvalue is 4*pi^2 times
the key.  On p-forms the spectrum is assembled from the scalar Laplace
spectrum A = {|l|^2 : l in the dual lattice} as

    C(n-1, p-1) copies of alpha*A   union   C(n-1, p) copies of beta*A,

with C(n-1, n) = 0 and C(n-1, -1) = 0, so p = n keeps only the alpha side
and p = 0 only the beta side (the codifferential kills functions, leaving
beta * delta d there; p = 0 is flagged as a duality extension).

An operator built with ``generic=True`` models a formally irrational
alpha/beta ratio: the alpha and beta parts are kept as separate weighted
sets and never merged, and cross-terms drop out of multiplicity counts.

Both parts are built from the walk's integer norms as int keys over one
common denominator (the walk scale times the weights' denominators), cut
and merged as integers, and the spectrum keeps those int keys: no Fraction
is built until a caller reads ``entries``.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import comb

from .errors import NonpositiveScalar, UnrepresentedNorm
from .lattice import Lattice, _exact_counts, _walk, dual, enumerate_norms
from .multiset import Unit, WeightedSpectrum, _operator_spectrum
from .rationals import (
    _charge, _degree, _echo, _echo_number, _nonnegative, _positive, _Record, _set_field,
)

__all__ = [
    "Branch",
    "TorusOperator",
    "laplace0_spectrum",
    "f_spectrum",
    "f_spectrum_parts",
    "eigenvalue_multiplicity",
]


class Branch(enum.Enum):
    """Which family an eigenvalue is read from: alpha*q or beta*q."""

    ALPHA = "alpha"
    BETA = "beta"


class TorusOperator(_Record):
    """alpha d delta + beta delta d on p-forms of R^n / lattice."""

    lattice: Lattice
    p: int
    alpha: Fraction
    beta: Fraction
    generic: bool

    def __init__(
        self, lattice: Lattice, p: int, alpha: Fraction, beta: Fraction, generic: bool = False
    ) -> None:
        _degree("torus operator", lattice.n, p, 0)
        alpha, beta = _positive(NonpositiveScalar, "alpha and beta", alpha, beta)
        _set_field(self, "lattice", lattice)
        _set_field(self, "p", p)
        _set_field(self, "alpha", alpha)
        _set_field(self, "beta", beta)
        _set_field(self, "generic", generic)

    @property
    def n(self) -> int:
        return self.lattice.n

    @property
    def duality_extension(self) -> bool:
        """True on the degree handled beyond the interior statement (p = 0)."""
        return self.p == 0

    @property
    def alpha_copies(self) -> int:
        return comb(self.n - 1, self.p - 1) if self.p >= 1 else 0

    @property
    def beta_copies(self) -> int:
        return comb(self.n - 1, self.p)


def laplace0_spectrum(lattice: Lattice, cutoff) -> WeightedSpectrum:
    """Scalar Laplace spectrum of the torus: keys |l|^2 over the dual lattice."""
    cutoff = _nonnegative(cutoff)
    return enumerate_norms(dual(lattice), cutoff)


def _parts(op: TorusOperator, cutoff: Fraction) -> tuple[int, list, list]:
    """Both parts as (integer key, multiplicity) lists over one denominator.

    The walk gives norms k / T, up to cutoff / w for the least weight w whose
    part has copies (p = 0 has no alpha part, p = n no beta part).  With
    alpha = a / a' and beta = b / b', the alpha key alpha * k / T is k*a*b'
    over den = T*a'*b', and the beta key is k*b*a' over den; a key is kept
    when it is at most floor(cutoff * den).  Returns ``(den, alpha_part,
    beta_part)``, each part sorted by key and already multiplied by its
    binomial copy count (empty for zero copies).  The walk's table is sorted
    on its int keys alone, and each part reads the counts off the table.
    Before any key is made, each part with copies is charged its norm count
    times bits(top) >> 10, as every key is at most top: the unit of the
    CLI's decimal-write charge.  Keys under 1024 bits are free and skip it.
    """
    alpha, beta = op.alpha, op.beta
    weight = min(w for w, copies in ((alpha, op.alpha_copies), (beta, op.beta_copies)) if copies)
    data = dual(op.lattice)
    # T * cutoff / weight, floored in ints
    counts = _walk(data, data.scale * cutoff.numerator * weight.denominator
                   // (cutoff.denominator * weight.numerator))
    den = data.scale * alpha.denominator * beta.denominator
    top = den * cutoff.numerator // cutoff.denominator
    if bits := top.bit_length() >> 10:
        keys = len(counts) * bits * ((op.alpha_copies > 0) + (op.beta_copies > 0))
        _charge(keys, lambda: f"torus keys need {_echo_number(keys)} work")
    norms = sorted(counts)

    def part(factor: int, copies: int) -> list:
        entries = []
        for norm in norms if copies else ():
            if norm * factor > top:
                break
            entries.append((norm * factor, copies * counts[norm]))
        return entries

    return (
        den,
        part(alpha.numerator * beta.denominator, op.alpha_copies),
        part(beta.numerator * alpha.denominator, op.beta_copies),
    )


def f_spectrum_parts(op: TorusOperator, cutoff) -> tuple[WeightedSpectrum, WeightedSpectrum]:
    """(alpha part, beta part), each complete up to ``cutoff``, never merged.

    At p = n the zero eigenvalue sits in the alpha part, with the rest of the
    alpha family; a sphere puts it in the beta part (see
    ``sphere.spectrum_parts``).
    """
    return _operator_spectrum(Unit.FOUR_PI_SQUARED, _parts, op, cutoff)


def f_spectrum(op: TorusOperator, cutoff) -> WeightedSpectrum:
    """Merged spectrum on p-forms, truncated at ``cutoff``."""
    return _operator_spectrum(Unit.FOUR_PI_SQUARED, _parts, op, cutoff, "f_spectrum_parts")


def eigenvalue_multiplicity(op: TorusOperator, norm, branch: Branch) -> int:
    """Multiplicity of the eigenvalue read off a dual squared norm ``norm``.

    Branch ALPHA means the eigenvalue key alpha*norm, branch BETA the key
    beta*norm.  The count includes the other family's contribution at the
    same key unless the operator is generic or that family has no copies.
    """
    # the zero eigenvalue has its own count
    (norm,) = _positive(ValueError, "norm", norm)
    if branch is Branch.ALPHA:
        own, other, own_copies, other_copies = op.alpha, op.beta, op.alpha_copies, op.beta_copies
    elif branch is Branch.BETA:
        own, other, own_copies, other_copies = op.beta, op.alpha, op.beta_copies, op.alpha_copies
    else:
        raise TypeError(f"branch must be a Branch, got {_echo(branch)}")
    # The other family reaches the key own*norm at the dual norm norm*own/other:
    # one walk to the larger of the two norms counts both, and only them.  Each
    # norm goes in as an int (num, den) pair, so no Fraction is built here.
    norms = [(norm.numerator, norm.denominator)]
    if other_copies and not op.generic:
        norms.append((norm.numerator * own.numerator * other.denominator,
                      norm.denominator * own.denominator * other.numerator))
    base, *crossed = _exact_counts(dual(op.lattice), *norms)
    if base == 0:
        raise UnrepresentedNorm(f"no dual vector has squared norm {_echo_number(norm)}")
    return own_copies * base + other_copies * sum(crossed)
