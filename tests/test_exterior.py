"""Polynomial forms for the sphere oracle: d, delta, position contraction.

The Hodge star here is a test-side reference: it pins the sign conventions of
``delta_flat`` and the p <-> n-p duality with swapped parameters.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from exterior import (
    DegreeZero,
    DimensionMismatch,
    Poly,
    PolyForm,
    contract_position,
    d_flat,
    delta_flat,
    homogeneous_exponents,
)


def hodge_star(a: PolyForm) -> PolyForm:
    """Euclidean Hodge star for the orientation e^0 ^ ... ^ e^{N-1}."""
    terms = []
    for indices, poly in a.coeffs.items():
        complement = tuple(i for i in range(a.nvars) if i not in indices)
        # e^I ^ e^J = sign e^0 ^ ... ^ e^{N-1}: the parity of sorting I + J
        inversions = sum(1 for i in indices for j in complement if i > j)
        terms.append((complement, poly.scale((-1) ** inversions)))
    return PolyForm.from_terms(a.nvars, a.nvars - a.degree, terms)


def random_poly(rng: random.Random, nvars: int, max_exp: int = 2) -> Poly:
    out = Poly.zero(nvars)
    for _ in range(rng.randrange(1, 4)):
        exps = tuple(rng.randrange(0, max_exp + 1) for _ in range(nvars))
        coeff = F(rng.randrange(-4, 5), rng.randrange(1, 4))
        out = out.add(Poly.monomial(nvars, exps, coeff))
    return out


def random_form(rng: random.Random, nvars: int, degree: int) -> PolyForm:
    combos = list(itertools.combinations(range(nvars), degree))
    picks = rng.sample(combos, k=min(len(combos), rng.randrange(1, 3)))
    return PolyForm.from_terms(
        nvars, degree, ((idx, random_poly(rng, nvars)) for idx in picks)
    )


def operator(a: PolyForm, alpha, beta) -> PolyForm:
    # alpha d(delta a) + beta delta(d a); needs 1 <= degree <= nvars - 1
    return d_flat(delta_flat(a)).scale(alpha).add(delta_flat(d_flat(a)).scale(beta))


def test_homogeneous_exponents_counts():
    assert homogeneous_exponents(2, 0) == [(0, 0)]
    assert homogeneous_exponents(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(homogeneous_exponents(3, 4)) == 15
    assert homogeneous_exponents(2, -1) == []


def test_poly_arithmetic_basics():
    x0 = Poly.variable(2, 0)
    x1 = Poly.variable(2, 1)
    q = x0.mul(x0).add(x1.mul(x1))
    assert q.coefficient((2, 0)) == 1
    assert q.coefficient((0, 2)) == 1
    assert q.laplacian() == Poly.constant(2, 4)
    assert q.diff(0) == x0.scale(2)
    assert x0.sub(x0).is_zero()
    assert Poly.constant(3, 0).is_zero()


def test_contract_position_example():
    e01 = PolyForm.basis(2, (0, 1))
    got = contract_position(e01)
    assert got.coefficient((1,)) == Poly.variable(2, 0)
    assert got.coefficient((0,)) == Poly.variable(2, 1).scale(-1)


def test_contract_position_euler_identity():
    # radial insertion into df recovers (total degree) * f on homogeneous f
    rng = random.Random(7)
    for nvars in (2, 3):
        for degree in (1, 2, 3):
            terms = {}
            for exps in homogeneous_exponents(nvars, degree):
                c = F(rng.randrange(-3, 4))
                if c:
                    terms[exps] = c
            f = Poly(nvars, terms)
            form = PolyForm(nvars, 0, {(): f} if not f.is_zero() else {})
            got = contract_position(d_flat(form)).coefficient(())
            assert got == f.scale(degree)


def test_d_of_coordinate():
    x0 = PolyForm(2, 0, {(): Poly.variable(2, 0)})
    assert d_flat(x0) == PolyForm.basis(2, (0,))


def test_d_insertion_sign():
    a = PolyForm(2, 1, {(0,): Poly.variable(2, 1)})
    assert d_flat(a) == PolyForm.basis(2, (0, 1), -1)


def test_d_squared_is_zero():
    rng = random.Random(12)
    for _ in range(30):
        nvars = rng.randrange(2, 5)
        p = rng.randrange(0, nvars - 1)
        a = random_form(rng, nvars, p)
        assert d_flat(d_flat(a)).is_zero()


def test_d_at_top_degree_is_zero():
    a = PolyForm(2, 2, {(0, 1): Poly.variable(2, 0)})
    assert d_flat(a).is_zero()


def test_delta_examples():
    a = PolyForm(2, 1, {(0,): Poly.variable(2, 0)})
    assert delta_flat(a) == PolyForm(2, 0, {(): Poly.constant(2, -1)})
    assert delta_flat(PolyForm.basis(2, (0,))).is_zero()


def test_delta_rejects_functions():
    with pytest.raises(DegreeZero):
        delta_flat(PolyForm(2, 0, {(): Poly.constant(2, 1)}))


def test_delta_squared_is_zero():
    rng = random.Random(13)
    for _ in range(30):
        nvars = rng.randrange(2, 5)
        p = rng.randrange(2, nvars + 1)
        a = random_form(rng, nvars, p)
        assert delta_flat(delta_flat(a)).is_zero()


def test_delta_d_on_functions_is_minus_laplacian():
    rng = random.Random(14)
    for _ in range(20):
        nvars = rng.randrange(2, 5)
        f = random_poly(rng, nvars)
        form = PolyForm(nvars, 0, {(): f} if not f.is_zero() else {})
        got = delta_flat(d_flat(form)).coefficient(())
        assert got == f.laplacian().scale(-1)


def test_star_on_plane():
    assert hodge_star(PolyForm.basis(2, (0,))) == PolyForm.basis(2, (1,))
    assert hodge_star(PolyForm.basis(2, (1,))) == PolyForm.basis(2, (0,), -1)
    assert hodge_star(PolyForm.basis(2, ())) == PolyForm.basis(2, (0, 1))
    assert hodge_star(PolyForm.basis(2, (0, 1))) == PolyForm.basis(2, ())


def test_star_squared_sign():
    rng = random.Random(15)
    for _ in range(30):
        nvars = rng.randrange(2, 5)
        p = rng.randrange(0, nvars + 1)
        a = random_form(rng, nvars, p)
        assert hodge_star(hodge_star(a)) == a.scale((-1) ** (p * (nvars - p)))


def test_codifferential_agrees_with_star_route():
    # delta = (-1)^{N(p+1)+1} star d star on p-forms, Euclidean orientation
    rng = random.Random(16)
    for nvars in (2, 3, 4):
        for p in range(1, nvars + 1):
            for _ in range(6):
                a = random_form(rng, nvars, p)
                sign = (-1) ** (nvars * (p + 1) + 1)
                via_star = hodge_star(d_flat(hodge_star(a))).scale(sign)
                assert delta_flat(a) == via_star


def test_star_conjugation_swaps_parameters():
    # star(alpha d delta + beta delta d) = (beta d delta + alpha delta d) star
    rng = random.Random(17)
    for nvars in (2, 3, 4):
        for p in range(1, nvars):
            for _ in range(4):
                a = random_form(rng, nvars, p)
                alpha = F(rng.randrange(1, 5), rng.randrange(1, 3))
                beta = F(rng.randrange(1, 5), rng.randrange(1, 3))
                lhs = hodge_star(operator(a, alpha, beta))
                rhs = operator(hodge_star(a), beta, alpha)
                assert lhs == rhs


def test_dimension_mismatches():
    a = PolyForm.basis(2, (0,))
    with pytest.raises(DimensionMismatch):
        a.add(PolyForm.basis(2, (0, 1)))


def test_form_validation():
    with pytest.raises(ValueError):
        PolyForm(2, 3, {})
    with pytest.raises(ValueError):
        PolyForm(2, 2, {(1, 0): Poly.constant(2, 1)})
    with pytest.raises(ValueError):
        PolyForm(2, 1, {(2,): Poly.constant(2, 1)})
    with pytest.raises(ValueError):
        PolyForm(2, 1, {(0,): Poly.constant(3, 1)})
