"""Polynomial differential forms on R^N for the sphere dimension oracle.

Forms are written in the basis ``e^{i_1} ^ ... ^ e^{i_p}`` with strictly
increasing 0-based index tuples; coefficients are exact-rational sparse
polynomials in the coordinates.  The sphere oracle in ``oracles.py``
needs three operators on them: the flat differential, the flat
codifferential, and contraction with the position vector field.

Sign conventions in one place: removing slot k (0-based) from an increasing
index tuple carries (-1)^k, the codifferential of ``f e^I`` is
``-sum_k (-1)^k (d f/dx_{I_k}) e^{I \\ I_k}``, and on functions the operator
``delta d`` is ``-sum_i d^2/dx_i^2`` (so flat-torus eigenvalues come out
nonnegative).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from hodgespec.errors import Error

__all__ = [
    "DegreeZero",
    "DimensionMismatch",
    "Poly",
    "PolyForm",
    "contract_position",
    "d_flat",
    "delta_flat",
    "homogeneous_exponents",
]


class DimensionMismatch(Error):
    """Operands live in ambient spaces of different dimension."""


class DegreeZero(Error):
    """The codifferential was applied to a 0-form."""


def homogeneous_exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree ``degree``, deterministic order."""
    if degree < 0:
        return []
    if nvars == 0:
        return [()] if degree == 0 else []
    out: list[tuple[int, ...]] = []

    def build(prefix: tuple[int, ...], remaining_vars: int, remaining_deg: int) -> None:
        if remaining_vars == 1:
            out.append(prefix + (remaining_deg,))
            return
        for d in range(remaining_deg + 1):
            build(prefix + (d,), remaining_vars - 1, remaining_deg - d)

    build((), nvars, degree)
    return out


@dataclass(frozen=True)
class Poly:
    """Sparse polynomial: exponent tuple -> nonzero rational coefficient."""

    nvars: int
    terms: Mapping[tuple[int, ...], Fraction] = field(default_factory=dict)

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        value = Fraction(value)
        if value == 0:
            return cls.zero(nvars)
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff) -> "Poly":
        coeff = Fraction(coeff)
        if coeff == 0:
            return cls.zero(nvars)
        return cls(nvars, {tuple(exps): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "Poly") -> "Poly":
        acc = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = acc.get(exps, Fraction(0)) + coeff
            if total:
                acc[exps] = total
            else:
                acc.pop(exps, None)
        return Poly(self.nvars, acc)

    def scale(self, factor) -> "Poly":
        factor = Fraction(factor)
        if factor == 0:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, {e: c * factor for e, c in self.terms.items()})

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.scale(-1))

    def mul(self, other: "Poly") -> "Poly":
        acc: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                total = acc.get(exps, Fraction(0)) + c1 * c2
                if total:
                    acc[exps] = total
                else:
                    acc.pop(exps, None)
        return Poly(self.nvars, acc)

    def diff(self, index: int) -> "Poly":
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            lowered = tuple(x - 1 if i == index else x for i, x in enumerate(exps))
            total = acc.get(lowered, Fraction(0)) + coeff * e
            if total:
                acc[lowered] = total
            else:
                acc.pop(lowered, None)
        return Poly(self.nvars, acc)

    def laplacian(self) -> "Poly":
        out = Poly.zero(self.nvars)
        for i in range(self.nvars):
            out = out.add(self.diff(i).diff(i))
        return out

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))


def _validate_indices(indices: tuple[int, ...], nvars: int) -> None:
    for a, b in zip(indices, indices[1:]):
        if a >= b:
            raise ValueError(f"index tuple {indices} is not strictly increasing")
    if indices and (indices[0] < 0 or indices[-1] >= nvars):
        raise ValueError(f"index tuple {indices} out of range for {nvars} variables")


@dataclass(frozen=True)
class PolyForm:
    """Differential form with Poly coefficients on increasing index tuples."""

    nvars: int
    degree: int
    coeffs: Mapping[tuple[int, ...], Poly] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.degree <= self.nvars:
            raise ValueError(f"degree {self.degree} out of range for {self.nvars} variables")
        for indices, poly in self.coeffs.items():
            if len(indices) != self.degree:
                raise ValueError(f"index tuple {indices} has wrong length for degree {self.degree}")
            _validate_indices(indices, self.nvars)
            if poly.nvars != self.nvars:
                raise ValueError("coefficient polynomial has wrong variable count")

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "PolyForm":
        return cls(nvars, degree, {})

    @classmethod
    def from_terms(
        cls, nvars: int, degree: int, terms: Iterable[tuple[tuple[int, ...], Poly]]
    ) -> "PolyForm":
        acc: dict[tuple[int, ...], Poly] = {}
        for indices, poly in terms:
            indices = tuple(indices)
            if indices in acc:
                poly = acc[indices].add(poly)
            if poly.is_zero():
                acc.pop(indices, None)
            else:
                acc[indices] = poly
        return cls(nvars, degree, acc)

    @classmethod
    def basis(cls, nvars: int, indices: Sequence[int], coeff=1) -> "PolyForm":
        """Constant-coefficient basis form ``coeff * e^indices``."""
        indices = tuple(indices)
        poly = Poly.constant(nvars, coeff)
        if poly.is_zero():
            return cls.zero(nvars, len(indices))
        return cls(nvars, len(indices), {indices: poly})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, indices: Sequence[int]) -> Poly:
        return self.coeffs.get(tuple(indices), Poly.zero(self.nvars))

    def add(self, other: "PolyForm") -> "PolyForm":
        if self.nvars != other.nvars or self.degree != other.degree:
            raise DimensionMismatch("cannot add forms of different shape")
        acc = dict(self.coeffs)
        for indices, poly in other.coeffs.items():
            total = acc.get(indices, Poly.zero(self.nvars)).add(poly)
            if total.is_zero():
                acc.pop(indices, None)
            else:
                acc[indices] = total
        return PolyForm(self.nvars, self.degree, acc)

    def scale(self, factor) -> "PolyForm":
        factor = Fraction(factor)
        if factor == 0:
            return PolyForm.zero(self.nvars, self.degree)
        return PolyForm(
            self.nvars, self.degree, {i: p.scale(factor) for i, p in self.coeffs.items()}
        )


def _contract_terms(a: PolyForm, slot_multiplier) -> PolyForm:
    """Shared engine for contraction: slot_multiplier(index, poly) -> Poly."""
    nvars = a.nvars
    if a.degree == 0:
        return PolyForm.zero(nvars, 0)
    acc: dict[tuple[int, ...], Poly] = {}
    for indices, poly in a.coeffs.items():
        for k, idx in enumerate(indices):
            term = slot_multiplier(idx, poly)
            if term.is_zero():
                continue
            term = term.scale((-1) ** k)
            reduced = indices[:k] + indices[k + 1:]
            total = acc.get(reduced, Poly.zero(nvars)).add(term)
            if total.is_zero():
                acc.pop(reduced, None)
            else:
                acc[reduced] = total
    return PolyForm(nvars, a.degree - 1, acc)


def contract_position(a: PolyForm) -> PolyForm:
    """Insert the position vector field (x_0, ..., x_{N-1}) into the first slot."""
    return _contract_terms(a, lambda idx, poly: poly.mul(Poly.variable(a.nvars, idx)))


def d_flat(a: PolyForm) -> PolyForm:
    """Exterior derivative; at top degree the result is the zero N-form."""
    nvars = a.nvars
    if a.degree == nvars:
        return PolyForm.zero(nvars, nvars)
    acc: dict[tuple[int, ...], Poly] = {}
    for indices, poly in a.coeffs.items():
        index_set = set(indices)
        for i in range(nvars):
            if i in index_set:
                continue
            term = poly.diff(i)
            if term.is_zero():
                continue
            position = sum(1 for j in indices if j < i)
            term = term.scale((-1) ** position)
            extended = tuple(sorted(indices + (i,)))
            total = acc.get(extended, Poly.zero(nvars)).add(term)
            if total.is_zero():
                acc.pop(extended, None)
            else:
                acc[extended] = total
    return PolyForm(nvars, a.degree + 1, acc)


def delta_flat(a: PolyForm) -> PolyForm:
    """Flat codifferential: -sum over slots of (-1)^k d(coeff)/dx_{I_k} on I minus slot k."""
    if a.degree == 0:
        raise DegreeZero("codifferential of a 0-form")
    return _contract_terms(a, lambda idx, poly: poly.diff(idx)).scale(-1)
