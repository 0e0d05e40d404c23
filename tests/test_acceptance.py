"""End-to-end acceptance run: ten checks, one PASS/FAIL line each.

Run with ``pytest -sv tests/test_acceptance.py`` to see the lines; every
check is exact rational arithmetic and carries a wall-clock budget.
"""

import random
import time
from fractions import Fraction as F
from math import comb

from hodgespec.isospec import (
    BRANCH_ALPHA_FIRST,
    BRANCH_BETA_FIRST,
    BRANCH_COINCIDENT,
    BRANCH_UNORDERED,
    first_divergence,
    is_isospectral_upto,
    reconstruct_base,
    recover_radius,
    recover_sphere_params,
    recover_torus_params,
)
from hodgespec.lattice import (
    Lattice,
    brute_force_enumerate,
    dual,
    enumerate_norms,
    standard_lattice,
)
from hodgespec.multiset import Unit, WeightedSpectrum, repeated_union
from hodgespec.sphere import (
    SphereOperator,
    dim_V,
    dim_W,
    eigenvalue_details,
    lambda_k,
    mu_k,
)
from hodgespec.sphere import spectrum as sphere_spectrum
from hodgespec.torus import (
    Branch,
    TorusOperator,
    eigenvalue_multiplicity,
    f_spectrum,
    laplace0_spectrum,
)

from oracles import d_plus, e8_plus_e8, harmonic_form_dims_oracle


def _report(number: int, label: str, budget: float, fn) -> None:
    start = time.perf_counter()
    try:
        detail = fn()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\n[FAIL] criterion {number}: {label} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    suffix = f"; {detail}" if detail else ""
    print(f"\n[PASS] criterion {number}: {label}{suffix} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def random_lattice(rng: random.Random, n: int) -> Lattice:
    rows = []
    for i in range(n):
        row = [F(0)] * n
        row[i] = F(rng.randrange(1, 4))
        for j in range(i + 1, n):
            row[j] = F(rng.randrange(-2, 3), rng.randrange(1, 4))
        rows.append(tuple(row))
    return Lattice(tuple(rows))


def test_criterion_1_zero_multiplicity():
    def check():
        rng = random.Random(101)
        for _ in range(20):
            n = rng.randrange(1, 6)
            lattice = random_lattice(rng, n)
            alpha = F(rng.randrange(1, 4), rng.randrange(1, 3))
            beta = F(rng.randrange(1, 4), rng.randrange(1, 3))
            for p in range(1, n + 1):
                op = TorusOperator(lattice, p, alpha, beta)
                got = f_spectrum(op, F(1, 3)).multiplicity(0)
                assert got == comb(n, p), (lattice, p, got)
        return "20 lattices, n <= 5, all 1 <= p <= n"

    _report(1, "zero eigenvalue multiplicity is C(n, p)", 1.0, check)


def test_criterion_2_torus_multiplicities_vs_box_scan():
    def check():
        rng = random.Random(102)
        lattices = [standard_lattice(2), standard_lattice(3)]
        lattices += [random_lattice(rng, rng.randrange(2, 4)) for _ in range(5)]
        parameter_schedule = [
            (F(1), F(2)), (F(1), F(1)), (F(3, 2), F(5, 2)), (F(2), F(3)),
            (F(5), F(1)), (F(1), F(3)), (F(2), F(2)),
        ]
        total_points = []
        for lattice, (alpha, beta) in zip(lattices, parameter_schedule):
            dual_data = dual(lattice)
            low = min(alpha, beta)
            bound = F(1)
            while sum(c for _, c in enumerate_norms(dual_data, bound).entries) < 150:
                bound *= 2
            table = brute_force_enumerate(dual_data, bound)
            counts = dict(table.entries)
            total_points.append(sum(counts.values()))
            cutoff = bound * low
            n = lattice.n
            for p in (1, n):
                op = TorusOperator(lattice, p, alpha, beta)
                ca, cb = op.alpha_copies, op.beta_copies
                parts = []
                for coefficient, copies in ((alpha, ca), (beta, cb)):
                    pairs = [
                        (coefficient * q, copies * c)
                        for q, c in table.entries
                        if copies and coefficient * q <= cutoff
                    ]
                    parts.append(
                        WeightedSpectrum.from_pairs(Unit.FOUR_PI_SQUARED, cutoff, pairs)
                    )
                assert f_spectrum(op, cutoff) == parts[0].union(parts[1])
                for q, c in table.entries:
                    if q <= 0:
                        continue
                    if alpha * q <= cutoff:
                        want = ca * c + cb * counts.get(q * alpha / beta, 0)
                        got = eigenvalue_multiplicity(op, q, Branch.ALPHA)
                        assert got == want, (lattice, p, q, got, want)
                    if beta * q <= cutoff:
                        want = cb * c + ca * counts.get(q * beta / alpha, 0)
                        got = eigenvalue_multiplicity(op, q, Branch.BETA)
                        assert got == want, (lattice, p, q, got, want)
        return f"7 lattices, point counts {min(total_points)}..{max(total_points)}"

    _report(2, "torus multiplicities match a box-scan rebuild", 10.0, check)


def test_criterion_3_hodge_duality():
    def check():
        rng = random.Random(103)
        for _ in range(20):
            n = rng.randrange(2, 5)
            lattice = random_lattice(rng, n)
            p = rng.randrange(0, n + 1)
            alpha = F(rng.randrange(1, 5), rng.randrange(1, 3))
            beta = F(rng.randrange(1, 5), rng.randrange(1, 3))
            left = f_spectrum(TorusOperator(lattice, p, alpha, beta), 3)
            right = f_spectrum(TorusOperator(lattice, n - p, beta, alpha), 3)
            assert is_isospectral_upto(left, right, 3)
        for _ in range(20):
            n = rng.randrange(2, 7)
            p = rng.randrange(0, n + 1)
            alpha = F(rng.randrange(1, 5))
            beta = F(rng.randrange(1, 5), rng.randrange(1, 3))
            r_squared = F(rng.randrange(1, 4), rng.randrange(1, 3))
            left = sphere_spectrum(SphereOperator(n, p, alpha, beta, r_squared), 40)
            right = sphere_spectrum(SphereOperator(n, n - p, beta, alpha, r_squared), 40)
            assert is_isospectral_upto(left, right, 40)
        return "20 torus + 20 sphere instances"

    _report(3, "p-form spectrum equals (n-p)-form spectrum with swapped weights", 10.0, check)


def test_criterion_4_scaling_laws():
    def check():
        rng = random.Random(104)
        for factor in (F(2), F(1, 3)):
            square = factor * factor
            for lattice in (standard_lattice(2), random_lattice(rng, 3)):
                n = lattice.n
                p = rng.randrange(0, n + 1)
                alpha, beta = F(3, 2), F(2)
                base = f_spectrum(TorusOperator(lattice, p, alpha, beta), 4)
                moved = f_spectrum(
                    TorusOperator(lattice.scaled(factor), p, square * alpha, square * beta), 4
                )
                assert base == moved
            for n, p in ((2, 1), (3, 2), (4, 0)):
                alpha, beta = F(2), F(5, 2)
                r_squared = F(3, 2)
                base = sphere_spectrum(SphereOperator(n, p, alpha, beta, r_squared), 30)
                moved = sphere_spectrum(
                    SphereOperator(n, p, square * alpha, square * beta, square * r_squared), 30
                )
                assert base == moved
        return "c in {2, 1/3}, torus and sphere"

    _report(4, "metric scaling trades against parameter scaling", 5.0, check)


def test_criterion_5_sphere_dimensions_vs_polynomial_oracle():
    def check():
        pairs = 0
        for n in (2, 3):
            for p in range(1, n):
                for k in range(4):
                    got = harmonic_form_dims_oracle(n, p, k)
                    assert got == (dim_V(n, p, k), dim_W(n, p, k)), (n, p, k, got)
                    pairs += 1
        for n in range(2, 7):
            for p in range(1, n):
                assert dim_V(n, p, 1) == comb(n + 1, p + 1)
                assert dim_W(n, p, 0) == comb(n + 1, p)
        return f"{pairs} oracle instances, binomial identities to n = 6"

    _report(5, "closed-form eigenspace dimensions match the rebuilt spaces", 60.0, check)


def test_criterion_6_half_dimension_coincidences():
    def check():
        for scale in (F(1), F(3, 2)):
            op = SphereOperator(2, 1, scale, scale)
            cutoff = lambda_k(op, 17)
            merged = sphere_spectrum(op, cutoff)
            for k in range(16):
                value = mu_k(op, k)
                assert value == lambda_k(op, k + 1)
                want = dim_V(2, 1, k + 1) + dim_W(2, 1, k)
                assert merged.multiplicity(value) == want
            details = eigenvalue_details(op, cutoff)
            assert all(len(d.terms) == 2 for d in details)
        first = sphere_spectrum(SphereOperator(2, 1, F(1), F(1)), 2)
        assert first.min_entry() == (F(2), 6)
        return "16 coincident levels at two parameter scales; first entry (2, 6)"

    _report(6, "middle-degree series interleave exactly on the 2-sphere", 1.0, check)


def _random_base_reconstructions(rng: random.Random, rounds: int) -> None:
    for _ in range(rounds):
        keys = sorted(rng.sample(range(0, 30), rng.randrange(2, 6)))
        pairs = [(F(k, rng.randrange(1, 3)), rng.randrange(1, 5)) for k in keys]
        pairs = sorted(set(pairs))
        cutoff = max(k for k, _ in pairs) + 1
        base = WeightedSpectrum.from_pairs(Unit.FOUR_PI_SQUARED, cutoff, pairs)
        alpha = F(rng.randrange(1, 6), rng.randrange(1, 3))
        beta = F(rng.randrange(1, 6), rng.randrange(1, 3))
        ca, cb = rng.randrange(1, 4), rng.randrange(1, 4)
        m = repeated_union(base.scale(alpha), ca, base.scale(beta), cb)
        back = reconstruct_base(m, alpha, beta, ca, cb)
        expected = [(k, mult) for k, mult in base.entries if k <= back.cutoff]
        assert list(back.entries) == expected


def _torus_recovery_rounds(rng: random.Random, rounds: int) -> dict:
    tally = {b: 0 for b in (BRANCH_ALPHA_FIRST, BRANCH_BETA_FIRST,
                            BRANCH_COINCIDENT, BRANCH_UNORDERED)}
    labels = list(tally)
    ordered_shapes = [(3, 1), (3, 2), (4, 1), (4, 3)]
    unordered_shapes = [(2, 1), (4, 2)]
    scales = [F(1), F(1, 2), F(2)]
    values = [F(1), F(3, 2), F(2), F(5, 2), F(3)]
    for i in range(rounds):
        label = labels[i % 4]
        scale = scales[i % 3]
        lam1 = 1 / (scale * scale)
        if label == BRANCH_UNORDERED:
            n, p = unordered_shapes[i % 2]
            alpha, beta = rng.choice(values), rng.choice(values)
        else:
            n, p = ordered_shapes[i % 4]
            if label == BRANCH_COINCIDENT:
                alpha = beta = rng.choice(values)
            else:
                alpha, beta = sorted(rng.sample(values, 2))
                if label == BRANCH_BETA_FIRST:
                    alpha, beta = beta, alpha
        lattice = standard_lattice(n).scaled(scale)
        op = TorusOperator(lattice, p, alpha, beta)
        high, low = max(alpha, beta), min(alpha, beta)
        m = f_spectrum(op, 2 * high * lam1)
        base = laplace0_spectrum(lattice, 2 * (high / low) * lam1)
        got = recover_torus_params(m, base, n, p)
        assert got.branch_trace == (label,)
        if label == BRANCH_UNORDERED:
            assert got.values == tuple(sorted((alpha, beta)))
        else:
            assert got.values == (alpha, beta)
        tally[label] += 1
    return tally


def _sphere_recovery_rounds(rng: random.Random, rounds: int) -> dict:
    tally = {b: 0 for b in (BRANCH_ALPHA_FIRST, BRANCH_BETA_FIRST,
                            BRANCH_COINCIDENT, BRANCH_UNORDERED)}
    labels = list(tally)
    ordered_shapes = [(3, 1), (3, 2), (4, 1), (4, 3), (5, 2)]
    unordered_shapes = [(2, 1), (4, 2)]
    radii = [F(1), F(4), F(9, 4), F(1, 4)]
    values = [F(1), F(3, 2), F(2), F(5, 2), F(3), F(4)]
    for i in range(rounds):
        label = labels[i % 4]
        r_squared = radii[i % 4]
        if label == BRANCH_UNORDERED:
            n, p = unordered_shapes[i % 2]
            alpha, beta = rng.choice(values), rng.choice(values)
        else:
            n, p = ordered_shapes[i % 5]
            alpha_weight = p * (n - p + 1)
            beta_weight = (p + 1) * (n - p)
            if label == BRANCH_COINCIDENT:
                t = rng.choice((F(1), F(1, 2), F(3, 2)))
                alpha, beta = t * beta_weight, t * alpha_weight
            else:
                while True:
                    alpha, beta = rng.choice(values), rng.choice(values)
                    lead_alpha = alpha * alpha_weight < beta * beta_weight
                    if lead_alpha and label == BRANCH_ALPHA_FIRST:
                        break
                    if not lead_alpha and alpha * alpha_weight != beta * beta_weight \
                            and label == BRANCH_BETA_FIRST:
                        break
        op = SphereOperator(n, p, alpha, beta, r_squared)
        mu0 = mu_k(op, 0)
        lam1 = lambda_k(op, 1)
        m = sphere_spectrum(op, 3 * max(mu0, lam1))
        got = recover_sphere_params(m, n, p, r_squared)
        assert got.branch_trace == (label,)
        if label == BRANCH_UNORDERED:
            assert got.values == tuple(sorted((alpha, beta)))
        else:
            assert got.values == (alpha, beta)
        tally[label] += 1
    return tally


def _radius_recovery_rounds(rng: random.Random, rounds: int) -> dict:
    sides = {"beta-series-leads": 0, "alpha-series-leads": 0}
    shapes = [(3, 1), (4, 1), (5, 2), (3, 2)]
    radii = [F(1), F(4), F(9, 4), F(1, 2)]
    values = [F(1), F(3, 2), F(2), F(3), F(4), F(5)]
    for i in range(rounds):
        want_beta_side = i % 2 == 0
        n, p = shapes[i % 4]
        alpha_weight = p * (n - p + 1)
        beta_weight = (p + 1) * (n - p)
        while True:
            alpha, beta = rng.choice(values), rng.choice(values)
            if (alpha * alpha_weight >= beta * beta_weight) == want_beta_side:
                break
        r_squared = radii[i % 4]
        op = SphereOperator(n, p, alpha, beta, r_squared)
        minimum = sphere_spectrum(op, 2 * max(mu_k(op, 0), lambda_k(op, 1))).min_entry()[0]
        assert recover_radius(alpha, beta, n, p, minimum) == r_squared
        sides["beta-series-leads" if want_beta_side else "alpha-series-leads"] += 1
    return sides


def test_criterion_7_recovery_round_trips():
    def check():
        rng = random.Random(107)
        _random_base_reconstructions(rng, 100)
        torus_tally = _torus_recovery_rounds(rng, 50)
        sphere_tally = _sphere_recovery_rounds(rng, 50)
        radius_tally = _radius_recovery_rounds(rng, 20)
        for name, tally in (("torus", torus_tally), ("sphere", sphere_tally),
                            ("radius", radius_tally)):
            for branch, count in tally.items():
                assert count >= 5, f"{name} branch {branch} hit only {count} times"
        branches = {**{f"torus {k}": v for k, v in torus_tally.items()},
                    **{f"sphere {k}": v for k, v in sphere_tally.items()}}
        low = min(branches.values())
        return f"100 + 50 + 50 + 20 runs, rarest branch hit {low} times"

    _report(7, "all inverse algorithms round-trip with every branch exercised", 60.0, check)


def test_criterion_8_circle_consistency():
    def check():
        for r in (F(1), F(3, 2)):
            for alpha, beta in ((F(1), F(1)), (F(2), F(3))):
                circle = Lattice(((r,),))
                cutoff = F(40)
                torus_side = f_spectrum(TorusOperator(circle, 1, alpha, beta), cutoff)
                sphere_op = SphereOperator(1, 1, alpha, beta, r_squared=r * r)
                sphere_side = sphere_spectrum(sphere_op, cutoff).with_unit(
                    Unit.FOUR_PI_SQUARED
                )
                assert torus_side == sphere_side
        return "r in {1, 3/2}, two parameter pairs, top-degree duality mode"

    _report(8, "circle spectra agree between the torus and sphere models", 1.0, check)


def test_criterion_9_negative_control():
    def check():
        stretched = Lattice(((F(1), F(0)), (F(0), F(2))))
        alpha, beta = F(1), F(1)
        left = f_spectrum(TorusOperator(standard_lattice(2), 1, alpha, beta), 2)
        right = f_spectrum(TorusOperator(stretched, 1, alpha, beta), 2)
        assert not is_isospectral_upto(left, right, 2)
        divergence = first_divergence(left, right, 2)
        assert divergence == (F(1, 4), 0, 4)
        key, left_mult, right_mult = divergence
        return f"first divergent key {key} (multiplicities {left_mult} vs {right_mult})"

    _report(9, "stretched square torus is distinguished at a concrete key", 1.0, check)


def test_criterion_10_positive_control():
    def check():
        e8e8 = e8_plus_e8()
        p, alpha, beta = 7, F(1), F(2)
        cutoff = 4 * alpha  # the alpha side walks to dual norm 4
        left = f_spectrum(TorusOperator(e8e8, p, alpha, beta), cutoff)
        right = f_spectrum(TorusOperator(d_plus(16), p, alpha, beta), cutoff)
        assert is_isospectral_upto(left, right, cutoff)
        # Both lattices are unimodular: dual norms 0, 2, 4 occur 1, 480, 61920 times.
        theta = {F(0): 1, F(2): 480, F(4): 61920}
        want: dict = {}
        for coefficient, copies in ((alpha, comb(15, p - 1)), (beta, comb(15, p))):
            for norm, count in theta.items():
                if coefficient * norm <= cutoff:
                    key = coefficient * norm
                    want[key] = want.get(key, 0) + copies * count
        assert dict(left.entries) == want
        return f"p={p}, alpha={alpha}, beta={beta}, {len(want)} keys up to {cutoff}"

    _report(10, "Milnor's E8+E8 and D16+ tori are F-isospectral", 10.0, check)
