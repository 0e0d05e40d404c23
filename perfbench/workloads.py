"""Seeded job lists for the four benchmark workloads, with their output checks.

A job is one closed-loop call into hodgespec: the next job starts when the
previous one returns.  ``build`` makes the same job list for the same seed.
Input sizes come from fixed ladders (target lattice-point counts, target
spectrum lengths) and the seed only draws the lattices, weights and degrees,
so the cost of a job list barely depends on the seed.

Each check runs outside the timed region and, where one exists, uses a path
independent of the one being timed: a box scan in integer arithmetic or a
product of one-dimensional theta series for walk tables, closed-form sphere
series written here, duality and Milnor pairs that are isospectral by
construction, recovery round trips that must give back the generating
parameters, the closed-form C(n, p) zero multiplicity, and the documented
CLI exit code, stdout and single JSON error object.  A check returns None
when the output is right and a one-line reason otherwise.  Norm tables and
spectra, for inputs and references alike, are computed here and not by
hodgespec, so neither set-up nor a check fills a cache that a timed job
could hit.

Functions under test are looked up in their module when the job runs
(``torus.f_spectrum``, never a name bound while the job list is built), so
the trace wrappers, installed after ``build``, see every call.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction as F
from math import comb, factorial
from pathlib import Path
from typing import Callable

from hodgespec import isospec, lattice, sphere, torus
from hodgespec.lattice import Lattice, standard_lattice
from hodgespec.multiset import Unit, WeightedSpectrum
from hodgespec.sphere import SphereOperator
from hodgespec.torus import Branch, TorusOperator

TORUS = Unit.FOUR_PI_SQUARED.value
PLAIN = Unit.PLAIN.value


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    lattice: object = None  # the lattice the job reads, for the inputs' repeat share
    props: dict = field(default_factory=dict)
    known_defect: bool = False  # fails today, by a documented defect of the program


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    bytes_in: int
    bytes_out: int
    peak_rss_kb: int  # the call's own VmHWM


# -- references --------------------------------------------------------------


def table_pairs(table) -> tuple:
    """(norm, count) pairs of an enumeration result."""
    return table.counts if hasattr(table, "counts") else table.entries


def invert(matrix) -> list[list[F]]:
    """Inverse of a nonsingular rational matrix by Gauss-Jordan elimination."""
    n = len(matrix)
    rows = [list(map(F, row)) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def box_table(lat: Lattice, bound) -> dict:
    """Dual-norm counts by a box scan in integers, the reference enumeration.

    The dual Gram matrix is the inverse of the Gram matrix G of the basis,
    and a dual vector of norm <= bound has coefficients |x_i| <= sqrt(bound
    G_ii).  The dual Gram matrix is scaled to integers, and the norm is a
    quadratic in the last coefficient, so each box cell costs a few integer
    operations.
    """
    bound = F(bound)
    n = lat.n
    gram = [[sum(a * b for a, b in zip(r, s)) for s in lat.basis] for r in lat.basis]
    inverse = invert(gram)
    den = math.lcm(*(v.denominator for row in inverse for v in row))
    form = [[int(v * den) for v in row] for row in inverse]
    limit = math.floor(bound * den)
    radii = [math.isqrt(math.floor(bound * gram[i][i])) for i in range(n)]
    last = n - 1
    counts: dict = {}
    for head in itertools.product(*(range(-r, r + 1) for r in radii[:last])):
        q0 = sum(head[i] * sum(form[i][j] * head[j] for j in range(last)) for i in range(last))
        linear = 2 * sum(form[i][last] * head[i] for i in range(last))
        for x in range(-radii[last], radii[last] + 1):
            q = q0 + x * (linear + form[last][last] * x)
            if q <= limit:
                counts[q] = counts.get(q, 0) + 1
    return {F(q, den): c for q, c in counts.items()}


def diagonal_table(diag, bound) -> dict:
    """Dual-norm counts of the lattice with basis diag(a_i), as a theta product."""
    table = {F(0): 1}
    for a in diag:
        axis, k = {}, 0
        while F(k * k) / (a * a) <= bound:
            axis[F(k * k) / (a * a)] = 1 if k == 0 else 2
            k += 1
        product: dict = {}
        for q, c in table.items():
            for r, d in axis.items():
                if q + r <= bound:
                    product[q + r] = product.get(q + r, 0) + c * d
        table = product
    return table


def torus_parts(table: dict, n: int, p: int, alpha, beta, cutoff) -> tuple[dict, dict]:
    """Alpha and beta parts assembled from binomial copies of a norm table."""
    copies_a = comb(n - 1, p - 1) if p >= 1 else 0
    parts = []
    for coef, copies in ((alpha, copies_a), (beta, comb(n - 1, p))):
        part: dict = {}
        for q, c in table.items():
            if copies and coef * q <= cutoff:
                part[coef * q] = part.get(coef * q, 0) + copies * c
        parts.append(part)
    return parts[0], parts[1]


def merge(*dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for k, m in d.items():
            out[k] = out.get(k, 0) + m
    return out


def entries(d: dict) -> tuple:
    return tuple(sorted(d.items()))


def upto(pairs, bound) -> tuple:
    return tuple((k, m) for k, m in pairs if k <= bound)


def divergence(left: dict, right: dict, bound):
    """First key <= bound where two multiplicity maps differ, or None."""
    for key in sorted(k for k in set(left) | set(right) if k <= bound):
        if left.get(key, 0) != right.get(key, 0):
            return key, left.get(key, 0), right.get(key, 0)
    return None


def _exact(num: int, den: int) -> int:
    if num % den:
        raise ArithmeticError("sphere dimension is not an integer")
    return num // den


def dim_v(n: int, p: int, k: int) -> int:
    if k == 0:
        return 0
    return _exact(
        factorial(n + k - 1) * (n + 2 * k - 1),
        factorial(p) * factorial(k - 1) * factorial(n - p - 1) * (n + k - p - 1) * (k + p),
    )


def dim_w(n: int, p: int, k: int) -> int:
    return _exact(
        factorial(n + k) * (n + 2 * k + 1),
        factorial(p - 1) * factorial(k) * factorial(n - p) * (n + k - p + 1) * (k + p),
    )


def harmonic_dim(m: int, k: int) -> int:
    return comb(m + k - 1, k) - (comb(m + k - 3, k - 2) if k >= 2 else 0)


def _series(value, dim, start: int, cutoff) -> dict:
    out, k = {}, start
    while value(k) <= cutoff:
        if dim(k):
            out[value(k)] = dim(k)
        k += 1
    return out


def sphere_parts(n: int, p: int, alpha, beta, r2, cutoff) -> tuple[dict, dict]:
    """Closed-form (alpha part, beta part) of a sphere p-form spectrum."""
    if p in (0, n):
        coef = beta if p == 0 else alpha
        full = _series(lambda k: coef * k * (k + n - 1) / r2, lambda k: harmonic_dim(n + 1, k), 0, cutoff)
        if p == 0:
            return {}, full
        del full[F(0)]
        return full, {F(0): 1}
    mu = _series(lambda k: alpha * (k + p) * (k + n - p + 1) / r2, lambda k: dim_w(n, p, k), 0, cutoff)
    lam = _series(lambda k: beta * (k + p) * (k + n - p - 1) / r2, lambda k: dim_v(n, p, k), 1, cutoff)
    return mu, lam


def sphere_ref(n, p, alpha, beta, r2, cutoff) -> dict:
    return merge(*sphere_parts(n, p, alpha, beta, r2, cutoff))


# -- generators ----------------------------------------------------------------


def weight(rng) -> F:
    """A positive weight in [1, 3] with a small denominator."""
    den = rng.choice((1, 1, 2, 3))
    return F(rng.randint(2 * den, 6 * den), 2 * den)


# Entries of seeded bases.  The sets are small so that the walk's work per
# lattice point, and with it a job's cost, varies little from seed to seed.
DIAGONALS = (F(1), F(7, 6), F(5, 4), F(4, 3), F(3, 2))
SHEARS = (F(-1, 2), F(-1, 3), F(-1, 4), F(-1, 6), F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2))


def rational_lattice(rng, n: int) -> Lattice:
    """Upper-triangular basis with small-denominator diagonal and shears."""
    if n == 1:  # too few one-entry bases in DIAGONALS to draw distinct ones
        return Lattice(((F(rng.randint(24, 48), 24),),))
    rows = []
    for i in range(n):
        row = [F(0)] * n
        row[i] = rng.choice(DIAGONALS)
        for j in range(i + 1, n):
            row[j] = rng.choice(SHEARS)
        rows.append(row)
    return Lattice(tuple(map(tuple, rows)))


def diagonal_lattice(diag) -> Lattice:
    n = len(diag)
    return Lattice(tuple(tuple(diag[i] if i == j else F(0) for j in range(n)) for i in range(n)))


def bound_for_points(lat: Lattice, points: float) -> F:
    """Norm bound whose dual ball holds about ``points`` lattice points."""
    n = lat.n
    det = abs(math.prod(float(lat.basis[i][i]) for i in range(n)))  # triangular bases only
    ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    return max(F(round(4 * (points / (ball * det)) ** (2 / n)), 4), F(1, 4))


def d_plus(n: int) -> Lattice:
    """D_n^+ from rows 2e_0, e_{i+1} - e_i (i < n-2) and (1/2, ..., 1/2)."""
    rows = [[F(2)] + [F(0)] * (n - 1)]
    for i in range(n - 2):
        row = [F(0)] * n
        row[i], row[i + 1] = F(-1), F(1)
        rows.append(row)
    rows.append([F(1, 2)] * n)
    return Lattice(tuple(map(tuple, rows)))


def block_diagonal(a: Lattice, b: Lattice) -> Lattice:
    rows = [tuple(r) + (F(0),) * b.n for r in a.basis]
    rows += [(F(0),) * a.n + tuple(r) for r in b.basis]
    return Lattice(tuple(rows))


def ladder(lo: float, hi: float, count: int) -> list[float]:
    return [lo + (hi - lo) * i / max(count - 1, 1) for i in range(count)]


def unique_lattices(rng, dims, seen: set) -> list[Lattice]:
    out = []
    for n in dims:
        lat = rational_lattice(rng, n)
        while lat in seen:
            lat = rational_lattice(rng, n)
        seen.add(lat)
        out.append(lat)
    return out


# -- torus_spectra -------------------------------------------------------------


def _spectrum_check(table_fn, n, p, alpha, beta, cutoff, *, generic=False, prefix=None):
    """Compare a torus spectrum (or its parts) against a reference norm table.

    ``prefix`` restricts the comparison to keys <= prefix, for walks too deep
    for the box scan.
    """

    def check(out):
        bound = cutoff if prefix is None else prefix
        a, b = torus_parts(table_fn(bound / min(alpha, beta)), n, p, alpha, beta, bound)
        got = out if generic else (out,)
        want = (a, b) if generic else (merge(a, b),)
        for spec, ref in zip(got, want):
            if spec.cutoff != cutoff:
                return f"cutoff {spec.cutoff} != {cutoff}"
            if upto(spec.entries, bound) != entries(ref):
                return f"entries differ from the reference up to {bound}"
        zero = sum(dict(spec.entries).get(F(0), 0) for spec in got)
        if zero != comb(n, p):
            return f"zero multiplicity {zero} != C({n},{p})"
        return None

    return check


def _laplace_check(table_fn, cutoff, prefix=None):
    def check(out):
        bound = cutoff if prefix is None else prefix
        if out.cutoff != cutoff or upto(out.entries, bound) != entries(table_fn(bound)):
            return f"scalar spectrum differs from the reference up to {bound}"
        return None

    return check


# Walks beyond this many points are checked against the box scan on a prefix
# of this many points, which keeps the 4-D and 5-D boxes small.
PREFIX_POINTS = 60


def torus_spectra(rng, workdir: Path, traced: bool) -> list[Job]:
    """One-shot spectra; every lattice is used by one job only."""
    jobs: list[Job] = []
    skew = Lattice(((F(1), F(0)), (F(1, 3), F(1))))
    stretches = [F(k, 4) for k in rng.sample(range(5, 41), 12)]
    stretched = [diagonal_lattice([F(1), s]) for s in stretches]
    seen = {standard_lattice(n) for n in range(1, 6)} | {skew} | set(stretched)

    def spectrum_job(kind, lat, walk_bound, table_fn, prefix_points=None):
        n = lat.n
        alpha, beta = weight(rng), weight(rng)
        p = rng.randint(0, n)
        cutoff = walk_bound * min(alpha, beta)
        prefix = None
        if prefix_points is not None:
            prefix = bound_for_points(lat, prefix_points) * min(alpha, beta)
        props = {"n": n, "walk_bound": walk_bound}
        if kind == "laplace0_spectrum":
            pre = None if prefix is None else prefix / min(alpha, beta)
            jobs.append(Job(kind, lambda: torus.laplace0_spectrum(lat, walk_bound),
                            _laplace_check(table_fn, walk_bound, pre), lat, props))
            return
        generic = kind == "f_spectrum_parts"
        op = TorusOperator(lat, p, alpha, beta, generic=generic)
        jobs.append(Job(kind, lambda: getattr(torus, kind)(op, cutoff),
                        _spectrum_check(table_fn, n, p, alpha, beta, cutoff, generic=generic,
                                        prefix=prefix), lat, props))

    kinds = ("f_spectrum", "f_spectrum_parts", "laplace0_spectrum")
    # Small tier (the median): 63 walks of 20..300 points, n = 1..5.
    small = unique_lattices(rng, [1 + i % 5 for i in range(63)], seen)
    for i, (lat, points) in enumerate(zip(small, ladder(20, 300, 63))):
        spectrum_job(kinds[i % 3], lat, bound_for_points(lat, points),
                     lambda b, lat=lat: box_table(lat, b),
                     prefix_points=PREFIX_POINTS if points > PREFIX_POINTS else None)
    # Z^1, Z^2 and Z^5 once each, checked against theta products.
    for i, n in enumerate((1, 2, 5)):
        lat = standard_lattice(n)
        spectrum_job(kinds[i], lat, bound_for_points(lat, 150),
                     lambda b, n=n: diagonal_table([F(1)] * n, b))
    # Medium tier (the p90): 30 walks of 1200..1800 points, n = 3 and 4, whose
    # cost per point is alike.
    medium = unique_lattices(rng, [3 + i % 2 for i in range(30)], seen)
    for i, (lat, points) in enumerate(zip(medium, ladder(1200, 1800, 30))):
        spectrum_job(kinds[i % 3], lat, bound_for_points(lat, points),
                     lambda b, lat=lat: box_table(lat, b), prefix_points=PREFIX_POINTS)
    # Deep tail: Z^3 to 200, Z^4 to 50, a skew 2-D lattice to 2000 and two
    # seeded rational lattices of about 8000 points.
    z3, z4 = standard_lattice(3), standard_lattice(4)
    spectrum_job("f_spectrum", z3, F(200), lambda b: diagonal_table([F(1)] * 3, b))
    spectrum_job("laplace0_spectrum", z4, F(50), lambda b: diagonal_table([F(1)] * 4, b))
    spectrum_job("laplace0_spectrum", skew, F(2000), lambda b: box_table(skew, b))
    for kind, lat in zip(("f_spectrum", "f_spectrum_parts"), unique_lattices(rng, (3, 5), seen)):
        spectrum_job(kind, lat, bound_for_points(lat, 8000),
                     lambda b, lat=lat: box_table(lat, b), prefix_points=PREFIX_POINTS)
    jobs.append(milnor_job(rng))
    # Stretched-square negative controls: they diverge at the first keys.
    for left, right in zip(stretched[::2], stretched[1::2]):
        jobs.append(stretched_job(rng, left, right))
    rng.shuffle(jobs)
    return jobs


def milnor_job(rng) -> Job:
    """E8+E8 against D16+ to walk bound 2: isospectral, counts 1 and 480."""
    e8e8, d16 = block_diagonal(d_plus(8), d_plus(8)), d_plus(16)
    alpha, beta, p = weight(rng), weight(rng), rng.randint(1, 15)
    cutoff = 2 * min(alpha, beta)

    def run():
        left = torus.f_spectrum(TorusOperator(e8e8, p, alpha, beta), cutoff)
        right = torus.f_spectrum(TorusOperator(d16, p, alpha, beta), cutoff)
        return left, isospec.is_isospectral_upto(left, right, cutoff)

    def check(out):
        spec, verdict = out
        want = merge(*torus_parts({F(0): 1, F(2): 480}, 16, p, alpha, beta, cutoff))
        if verdict is not True:
            return "Milnor pair not isospectral"
        if spec.entries != entries(want):
            return "E8+E8 spectrum differs from theta counts 1, 480"
        return None

    return Job("milnor_is_isospectral_upto", run, check, e8e8, {"n": 16, "walk_bound": F(2)})


def stretched_job(rng, left_lat, right_lat) -> Job:
    alpha, beta = weight(rng), weight(rng)
    p = rng.randint(0, 2)
    walk_bound = F(rng.randint(30, 50))
    cutoff = walk_bound * min(alpha, beta)
    diag_l = [left_lat.basis[i][i] for i in range(2)]
    diag_r = [right_lat.basis[i][i] for i in range(2)]

    def run():
        left = torus.f_spectrum(TorusOperator(left_lat, p, alpha, beta), cutoff)
        right = torus.f_spectrum(TorusOperator(right_lat, p, alpha, beta), cutoff)
        return isospec.first_divergence(left, right, cutoff)

    def check(out):
        refs = [merge(*torus_parts(diagonal_table(d, walk_bound), 2, p, alpha, beta, cutoff))
                for d in (diag_l, diag_r)]
        want = divergence(*refs, cutoff)
        return None if out == want else f"first divergence {out} != {want}"

    return Job("stretched_first_divergence", run, check, left_lat,
               {"n": 2, "walk_bound": walk_bound})


# -- torus_queries -------------------------------------------------------------


def _ladder_norms(table: dict, points: int, count: int) -> list[F]:
    """Table norms at which the ball first holds points*j/count lattice points."""
    norms, total, picked = sorted(q for q in table if q > 0), table[F(0)], []
    targets = [points * (j + 1) / count for j in range(count)]
    for q in norms:
        total += table[q]
        if targets and total >= targets[0]:
            picked.append(q)
            while targets and total >= targets[0]:
                targets.pop(0)
    return picked


def torus_queries(rng, workdir: Path, traced: bool) -> list[Job]:
    """Many small questions about three lattices, so walks repeat."""
    jobs: list[Job] = []
    lats = [rational_lattice(rng, 3), rational_lattice(rng, 2), rational_lattice(rng, 4)]
    # beta/alpha per lattice; fixed, because a query walks to q * alpha/beta.
    for lat, ratio in zip(lats, (F(4, 3), F(3, 4), F(5, 4))):
        n = lat.n
        alpha = weight(rng)
        beta = alpha * ratio
        # A ball of about 750 points, so that the 600-point ladder fits in it.
        bound = bound_for_points(lat, 750)
        table = box_table(lat, bound)
        wide = _lazy(lambda lat=lat, b=bound: box_table(lat, b * F(3, 2)))
        props = {"n": n, "table_bound": bound}
        # eigenvalue_multiplicity on both branches for each norm of the ladder.
        for q in _ladder_norms(table, 600, 20):
            p = rng.randint(1, n)
            op = TorusOperator(lat, p, alpha, beta)
            for branch in (Branch.ALPHA, Branch.BETA):
                jobs.append(Job(
                    "eigenvalue_multiplicity",
                    lambda op=op, q=q, branch=branch: torus.eigenvalue_multiplicity(op, q, branch),
                    _multiplicity_check(op, q, branch, wide),
                    lat, props,
                ))
        for q in _ladder_norms(table, 600, 10):
            jobs.append(Job(
                "count_norm",
                lambda lat=lat, q=q: lattice.count_norm(lattice.dual(lat), q),
                lambda out, want=table[q]: None if out == want else f"{out} != {want}",
                lat, props,
            ))
        for points in (40, 60, 80):
            box_bound = bound_for_points(lat, points)
            jobs.append(Job(
                "brute_force_enumerate",
                lambda lat=lat, b=box_bound: lattice.brute_force_enumerate(lattice.dual(lat), b),
                lambda out, lat=lat, b=box_bound: _box_agrees(out, lat, b),
                lat, props,
            ))
    # Round trips on all four recover_torus_params branches, twice each.
    three, two = lats[0], lats[1]
    for lat, p, relation in [(three, 1, "<"), (three, 2, ">"), (three, 1, "="), (two, 1, "<"),
                             (three, 2, "<"), (three, 1, ">"), (three, 2, "="), (two, 1, ">")]:
        jobs.append(torus_recovery_job(rng, lat, p, relation))
    for lat in (three, two, three, two):
        jobs.append(reconstruct_job(rng, lat))
    rng.shuffle(jobs)
    return jobs


def _lazy(make):
    """A zero-argument function that computes ``make()`` once, on first use."""
    cache = []

    def get():
        if not cache:
            cache.append(make())
        return cache[0]

    return get


def _multiplicity_check(op, q, branch, wide_table):
    """Criterion-2 count: own copies at q plus the other family at q*own/other."""
    alpha, beta = op.alpha, op.beta
    own, other = (alpha, beta) if branch is Branch.ALPHA else (beta, alpha)
    copies_own, copies_other = ((op.alpha_copies, op.beta_copies) if branch is Branch.ALPHA
                                else (op.beta_copies, op.alpha_copies))

    def check(out):
        table = wide_table()
        want = copies_own * table[q] + copies_other * table.get(q * own / other, 0)
        return None if out == want else f"{out} != {want}"

    return check


def _box_agrees(out, lat, bound):
    same = dict(table_pairs(out)) == box_table(lat, bound)
    return None if same else "box scan disagrees with the reference box scan"


def _spectrum_json(unit: str, cutoff, d: dict) -> dict:
    return {"unit": unit, "cutoff": str(F(cutoff)),
            "entries": [[str(k), m] for k, m in entries(d)]}


def torus_recovery_case(rng, lat: Lattice, p: int, relation: str):
    """Spectrum JSON payloads and the expected answer for recover_torus_params.

    The p-form and scalar spectra are built here from the box-scan table, so
    no timed code produces the inputs.
    """
    n = lat.n
    alpha = weight(rng)
    beta = {"<": alpha * F(rng.randint(5, 8), 4), ">": alpha / F(rng.randint(5, 8), 4),
            "=": alpha}[relation]
    base_bound = bound_for_points(lat, 60) * max(alpha, beta) / min(alpha, beta)
    table = box_table(lat, base_bound)
    cutoff = base_bound * min(alpha, beta)
    m_json = _spectrum_json(TORUS, cutoff, merge(*torus_parts(table, n, p, alpha, beta, cutoff)))
    base_json = _spectrum_json(TORUS, base_bound, table)
    if n == 2 * p:
        want = ("unordered", tuple(sorted((alpha, beta))), (isospec.BRANCH_UNORDERED,))
    elif alpha == beta:
        want = ("ordered", (alpha, beta), (isospec.BRANCH_COINCIDENT,))
    else:
        branch = isospec.BRANCH_ALPHA_FIRST if alpha < beta else isospec.BRANCH_BETA_FIRST
        want = ("ordered", (alpha, beta), (branch,))
    return m_json, base_json, want


def _recovery_check(want):
    def check(out):
        got = (out.kind, tuple(out.values), tuple(out.branch_trace))
        return None if got == want else f"{got} != {want}"

    return check


def _recovery_json(want) -> dict:
    kind, values, trace = want
    return {kind: [str(v) for v in values], "branch_trace": list(trace)}


def torus_recovery_job(rng, lat: Lattice, p: int, relation: str) -> Job:
    m_json, base_json, want = torus_recovery_case(rng, lat, p, relation)
    m_spec, base = WeightedSpectrum.from_json_dict(m_json), WeightedSpectrum.from_json_dict(base_json)
    return Job("recover_torus_params",
               lambda: isospec.recover_torus_params(m_spec, base, lat.n, p),
               _recovery_check(want), lat, {"n": lat.n, "entries": len(m_spec.entries)})


def reconstruct_job(rng, lat: Lattice) -> Job:
    """reconstruct_base on copies_a * (alpha C) + copies_b * (beta C)."""
    alpha, beta = weight(rng), weight(rng)
    if alpha == beta:
        beta += F(1, 2)
    ca, cb = rng.randint(1, 3), rng.randint(1, 3)
    base_bound = bound_for_points(lat, 150)
    table = box_table(lat, base_bound)
    cutoff = base_bound * min(alpha, beta)
    m = merge(*({coef * q: copies * c for q, c in table.items() if coef * q <= cutoff}
                for coef, copies in ((alpha, ca), (beta, cb))))
    m_spec = WeightedSpectrum.from_json_dict(_spectrum_json(TORUS, cutoff, m))
    guarantee = cutoff / max(alpha, beta)
    want = entries({q: c for q, c in table.items() if q <= guarantee})

    def check(out):
        if out.cutoff != guarantee or out.entries != want:
            return "reconstructed base differs from the generating table"
        return None

    return Job("reconstruct_base", lambda: isospec.reconstruct_base(m_spec, alpha, beta, ca, cb),
               check, lat, {"n": lat.n, "entries": len(m)})


# -- sphere_isospec ------------------------------------------------------------


def sphere_cutoff(alpha, beta, r2, terms: float) -> F:
    """Cutoff at which the two series together have about ``terms`` terms."""
    scale = terms / (float(alpha) ** -0.5 + float(beta) ** -0.5)
    return F(max(round(scale * scale / float(r2)), 1))


def sphere_params(rng, n=None, p=None):
    n = rng.randint(2, 8) if n is None else n
    p = rng.randint(1, n - 1) if p is None else p
    return n, p, weight(rng), weight(rng), rng.choice((F(1), F(2), F(1, 2), F(3, 2), F(4)))


def _parts_check(params, cutoff, merged: bool):
    def check(out):
        parts = sphere_parts(*params, cutoff)
        want = (entries(merge(*parts)),) if merged else tuple(entries(d) for d in parts)
        got = (out.entries,) if merged else tuple(part.entries for part in out)
        return None if got == want else "spectrum differs from the closed-form series"

    return check


def _details_check(n, p, alpha, beta, r2, cutoff):
    def check(out):
        got = entries({d.value: d.multiplicity for d in out})
        return None if got == entries(sphere_ref(n, p, alpha, beta, r2, cutoff)) else "details differ"

    return check


def _lam_keys(n, p, beta, r2, cutoff) -> dict:
    """lambda_k -> k for every lambda_k <= cutoff."""
    out, k = {}, 1
    while beta * (k + p) * (k + n - p - 1) / r2 <= cutoff:
        out[beta * (k + p) * (k + n - p - 1) / r2] = k
        k += 1
    return out


def _coincidence_check(n, p, alpha, beta, r2, cutoff):
    def check(out):
        lam, want, l = _lam_keys(n, p, beta, r2, cutoff), [], 0
        while alpha * (l + p) * (l + n - p + 1) / r2 <= cutoff:
            value = alpha * (l + p) * (l + n - p + 1) / r2
            if value in lam:
                want.append((lam[value], l))
            l += 1
        return None if tuple(out) == tuple(want) else f"{out} != {want}"

    return check


def sphere_isospec(rng, workdir: Path, traced: bool) -> list[Job]:
    """Sphere series, comparison walks and recoveries; no lattice code runs."""
    jobs: list[Job] = []
    for terms in ladder(200, 800, 30):
        n, p, alpha, beta, r2 = sphere_params(rng)
        cutoff = sphere_cutoff(alpha, beta, r2, terms)
        op = SphereOperator(n, p, alpha, beta, r2)
        jobs.append(Job("spectrum", lambda op=op, c=cutoff: sphere.spectrum(op, c),
                        _parts_check((n, p, alpha, beta, r2), cutoff, merged=True),
                        props={"n": n, "cutoff": cutoff}))
    for terms in ladder(200, 800, 15):
        n, p, alpha, beta, r2 = sphere_params(rng)
        p = rng.randint(0, n)
        cutoff = sphere_cutoff(alpha, beta, r2, terms)
        op = SphereOperator(n, p, alpha, beta, r2, generic=True)
        jobs.append(Job("spectrum_parts", lambda op=op, c=cutoff: sphere.spectrum_parts(op, c),
                        _parts_check((n, p, alpha, beta, r2), cutoff, merged=False),
                        props={"n": n, "cutoff": cutoff}))
    for kind, check_fn in (("eigenvalue_details", _details_check),
                           ("coincidences", _coincidence_check)):
        for terms in ladder(150, 400, 10):
            n, p, alpha, beta, r2 = sphere_params(rng)
            if kind == "coincidences":  # rational weight ratios make the series meet
                beta = alpha * rng.choice((F(1), F(2), F(1, 2), F(4, 3)))
            cutoff = sphere_cutoff(alpha, beta, r2, terms)
            op = SphereOperator(n, p, alpha, beta, r2)
            jobs.append(Job(kind, lambda kind=kind, op=op, c=cutoff: getattr(sphere, kind)(op, c),
                            check_fn(n, p, alpha, beta, r2, cutoff),
                            props={"n": n, "cutoff": cutoff}))
    # Duality pairs (p, alpha, beta) ~ (n-p, beta, alpha): every key is walked.
    # The tail: 20 quadratic first_divergence walks of about 200 entries each,
    # alike so that job_p90_ms falls among them.
    for terms in ladder(180, 220, 20):
        jobs.append(sphere_compare_job(rng, terms, dual_pair=True, first=True))
    for terms in ladder(150, 400, 10):
        jobs.append(sphere_compare_job(rng, terms, dual_pair=True, first=False))
    for i, terms in enumerate(ladder(100, 300, 10)):
        jobs.append(sphere_compare_job(rng, terms, dual_pair=False, first=i % 2 == 0))
    for relation in ("<", ">", "=", "half") * 2:
        jobs.append(sphere_recovery_job(rng, relation))
    for relation in ("<", ">", "=") * 2:
        jobs.append(radius_job(rng, relation))
    rng.shuffle(jobs)
    return jobs


def sphere_compare_job(rng, terms, *, dual_pair: bool, first: bool) -> Job:
    n, p, alpha, beta, r2 = sphere_params(rng)
    if dual_pair:
        right_params = (n, n - p, beta, alpha, r2)
    else:  # negative control: one weight moved
        right_params = (n, p, alpha, beta + F(1, 3), r2)
    cutoff = sphere_cutoff(alpha, beta, r2, terms)
    left_op, right_op = SphereOperator(n, p, alpha, beta, r2), SphereOperator(*right_params)
    compare = "first_divergence" if first else "is_isospectral_upto"

    def run():
        left, right = sphere.spectrum(left_op, cutoff), sphere.spectrum(right_op, cutoff)
        return getattr(isospec, compare)(left, right, cutoff)

    def check(out):
        found = divergence(sphere_ref(n, p, alpha, beta, r2, cutoff),
                           sphere_ref(*right_params, cutoff), cutoff)
        want = found if first else found is None
        return None if out == want else f"{out} != {want}"

    kind = ("duality_" if dual_pair else "negative_") + compare
    return Job(kind, run, check, props={"n": n, "cutoff": cutoff})


def _weights(n, p):
    return (p + 1) * (n - p), p * (n - p + 1)  # beta weight, alpha weight


def sphere_recovery_case(rng, relation: str):
    """Parameters, cutoff and expected answer for a recover_sphere_params round trip.

    ``relation`` picks the branch: "<" beta series first, ">" alpha series
    first, "=" both together, "half" the unordered n = 2p case.
    """
    if relation == "half":
        p = rng.randint(1, 4)
        n = 2 * p
    else:
        n = rng.randint(3, 8)
        p = rng.choice([q for q in range(1, n) if 2 * q != n])
    beta, r2 = weight(rng), rng.choice((F(1), F(2), F(1, 2)))
    bw, aw = _weights(n, p)
    tie = beta * bw / aw  # the alpha at which both series start together
    alpha = {"<": tie * F(rng.randint(5, 8), 4), ">": tie / F(rng.randint(5, 8), 4),
             "=": tie, "half": weight(rng)}[relation]
    first = max(alpha * aw, beta * bw) / r2
    cutoff = max(sphere_cutoff(alpha, beta, r2, 200), 2 * first)
    if relation == "half":
        want = ("unordered", tuple(sorted((alpha, beta))), (isospec.BRANCH_UNORDERED,))
    else:
        branch = {"<": isospec.BRANCH_BETA_FIRST, ">": isospec.BRANCH_ALPHA_FIRST,
                  "=": isospec.BRANCH_COINCIDENT}[relation]
        want = ("ordered", (alpha, beta), (branch,))
    return (n, p, alpha, beta, r2), cutoff, want


def sphere_recovery_job(rng, relation: str) -> Job:
    """Round trip: spectrum of (alpha, beta), then recover_sphere_params."""
    params, cutoff, want = sphere_recovery_case(rng, relation)
    op = SphereOperator(*params)
    n, p, r2 = params[0], params[1], params[4]

    def run():
        return isospec.recover_sphere_params(sphere.spectrum(op, cutoff), n, p, r2)

    return Job("recover_sphere_params", run, _recovery_check(want), props={"n": n, "cutoff": cutoff})


def radius_job(rng, relation: str) -> Job:
    """Round trip: spectrum at r^2, then recover_radius from its minimum."""
    n = rng.randint(2, 8)
    p = rng.randint(1, n - 1)
    beta, r2 = weight(rng), F(rng.randint(1, 8), rng.randint(1, 3))
    bw, aw = _weights(n, p)
    tie = beta * bw / aw
    alpha = {"<": tie / F(rng.randint(5, 8), 4), ">": tie * F(rng.randint(5, 8), 4), "=": tie}[relation]
    cutoff = sphere_cutoff(alpha, beta, r2, 200)
    op = SphereOperator(n, p, alpha, beta, r2)

    def run():
        spec = sphere.spectrum(op, cutoff)
        return isospec.recover_radius(alpha, beta, n, p, spec.min_entry()[0])

    return Job("recover_radius", run, lambda out: None if out == r2 else f"{out} != {r2}",
               props={"n": n, "cutoff": cutoff})


# -- cli_files -----------------------------------------------------------------

BOOTSTRAP = Path(__file__).resolve().parent / "cli_boot.py"


class Cli:
    """Runs ``hodgespec`` one call at a time through the bootstrap.

    Every call inherits HODGESPEC_BUDGET from the pass, which sets it to the
    documented default; only the budget-refusal calls override it.
    """

    def __init__(self, workdir: Path, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.calls = 0

    def __call__(self, argv: list[str], inputs=(), budget: str | None = None) -> CliResult:
        self.calls += 1
        record_file = self.workdir / f"call-{self.calls}.json"
        env = dict(os.environ) if budget is None else dict(os.environ, HODGESPEC_BUDGET=budget)
        stamp = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
        cmd = [sys.executable, str(BOOTSTRAP), str(record_file), stamp,
               "1" if self.traced else "0", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        bytes_in = sum(Path(path).stat().st_size for path in inputs)
        peak = json.loads(record_file.read_text())["peak_rss_kb"] if record_file.exists() else 0
        return CliResult(proc.returncode, proc.stdout, proc.stderr, bytes_in, len(proc.stdout), peak)


def _write(workdir: Path, name: str, payload) -> str:
    path = workdir / name
    path.write_text(json.dumps(payload))
    return str(path)


def _json_out(want, code=0):
    """Exit ``code`` and JSON stdout equal to ``want`` (or to ``want()``)."""

    def check(out: CliResult):
        if out.code != code:
            return f"exit {out.code}, documented {code}: {out.stderr.strip()[-200:]}"
        try:
            got = json.loads(out.stdout)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        return None if got == (want() if callable(want) else want) else "stdout differs from the reference"

    return check


def _csv_out(unit: str, ref):
    """Exit 0 and CSV stdout equal to the rows of ``ref()``."""

    def check(out: CliResult):
        if out.code != 0:
            return f"exit {out.code}, documented 0: {out.stderr.strip()[-200:]}"
        return None if out.stdout == _csv(unit, ref()) else "csv differs from the reference"

    return check


def _refusal(code: int, kind: str):
    def check(out: CliResult):
        if out.code != code:
            return f"exit {out.code}, documented {code}: {out.stderr.strip()[-200:]}"
        lines = out.stderr.strip().splitlines()
        try:
            payload = json.loads(out.stderr)
        except json.JSONDecodeError:
            return "stderr is not one JSON object"
        if len(lines) != 1 or not isinstance(payload, dict) or set(payload) != {"error", "message"}:
            return "stderr is not one JSON error object"
        return None if payload["error"] == kind else f"error kind {payload['error']} != {kind}"

    return check


def _csv(unit: str, d: dict) -> str:
    rows = ["eigenvalue_num,eigenvalue_den,unit,multiplicity"]
    rows += [f"{k.numerator},{k.denominator},{unit},{m}" for k, m in entries(d)]
    return "\n".join(rows) + "\n"


def _rat(x) -> str:
    return str(F(x))


def cli_files(rng, workdir: Path, traced: bool) -> list[Job]:
    """Every subcommand as a subprocess, on JSON files written during set-up."""
    cli = Cli(workdir, traced)
    jobs: list[Job] = []

    def add(kind, argv, check, inputs=(), budget=None, known_defect=False):
        jobs.append(Job(kind, lambda: cli(argv, inputs, budget), check, known_defect=known_defect))

    def torus_args(alpha, beta, cutoff):
        return ["--alpha", _rat(alpha), "--beta", _rat(beta), "--cutoff", _rat(cutoff)]

    # Three rounds of every call, each round with its own parameters, so a
    # pass has over 100 calls.
    for round_ in range(3):
        tag = f"r{round_}-"
        # spectrum torus on Z^n, JSON and CSV.
        for fmt in ("json", "csv", "json", "csv"):
            n = rng.randint(2, 4)
            p = rng.randint(1, n - 1)
            alpha, beta = weight(rng), weight(rng)
            walk = bound_for_points(standard_lattice(n), 1500)
            cutoff = walk * min(alpha, beta)
            ref = _lazy(lambda n=n, p=p, a=alpha, b=beta, w=walk, c=cutoff:
                        merge(*torus_parts(diagonal_table([F(1)] * n, w), n, p, a, b, c)))
            argv = ["spectrum", "torus", "--zn", str(n), "--p", str(p), *torus_args(alpha, beta, cutoff)]
            if fmt == "csv":
                add("spectrum_torus_csv", argv + ["--format", "csv"], _csv_out(TORUS, ref))
            else:
                add("spectrum_torus_json", argv,
                    _json_out(lambda c=cutoff, ref=ref: _spectrum_json(TORUS, c, ref())))
        # spectrum torus on lattice files, merged and generic.
        files = []
        for i, mode in enumerate(("merged", "generic", "merged", "generic")):
            lat = rational_lattice(rng, 2 + i % 3)
            path = _write(workdir, f"{tag}lattice-{i}.json", lat.to_json_dict())
            files.append((lat, path))
            n, p = lat.n, rng.randint(1, lat.n - 1)
            alpha, beta = weight(rng), weight(rng)
            walk = bound_for_points(lat, 1000)
            cutoff = walk * min(alpha, beta)
            argv = ["spectrum", "torus", "--lattice", path, "--p", str(p),
                    *torus_args(alpha, beta, cutoff), "--mode", mode]

            def want(lat=lat, n=n, p=p, a=alpha, b=beta, w=walk, c=cutoff, generic=mode == "generic"):
                left, right = torus_parts(box_table(lat, w), n, p, a, b, c)
                if generic:
                    return {"alpha_part": _spectrum_json(TORUS, c, left),
                            "beta_part": _spectrum_json(TORUS, c, right)}
                return _spectrum_json(TORUS, c, merge(left, right))

            add(f"spectrum_torus_{mode}", argv, _json_out(want), [path])
        # spectrum sphere: JSON, CSV and generic.
        for mode in ("json", "csv", "generic", "json"):
            n, p, alpha, beta, r2 = sphere_params(rng)
            cutoff = sphere_cutoff(alpha, beta, r2, 600)
            argv = ["spectrum", "sphere", "--n", str(n), "--p", str(p), "--alpha", _rat(alpha),
                    "--beta", _rat(beta), "--r2", _rat(r2), "--cutoff", _rat(cutoff)]
            parts = _lazy(lambda q=(n, p, alpha, beta, r2, cutoff): sphere_parts(*q))
            if mode == "csv":
                add("spectrum_sphere_csv", argv + ["--format", "csv"],
                    _csv_out(PLAIN, lambda parts=parts: merge(*parts())))
            elif mode == "generic":
                add("spectrum_sphere_generic", argv + ["--mode", "generic"], _json_out(
                    lambda c=cutoff, parts=parts: {"alpha_part": _spectrum_json(PLAIN, c, parts()[0]),
                                                   "beta_part": _spectrum_json(PLAIN, c, parts()[1])}))
            else:
                add("spectrum_sphere_json", argv, _json_out(
                    lambda c=cutoff, parts=parts: _spectrum_json(PLAIN, c, merge(*parts()))))
        # isospec: duality pairs exit 0, a stretched square and a moved weight exit 1.
        for lat, path in files[:2]:
            n, p = lat.n, rng.randint(1, lat.n - 1)
            alpha, beta = weight(rng), weight(rng)
            cutoff = bound_for_points(lat, 800) * min(alpha, beta)
            argv = ["isospec", "--left-kind", "torus", "--left-lattice", path, "--left-p", str(p),
                    "--left-alpha", _rat(alpha), "--left-beta", _rat(beta),
                    "--right-kind", "torus", "--right-lattice", path, "--right-p", str(n - p),
                    "--right-alpha", _rat(beta), "--right-beta", _rat(alpha), "--cutoff", _rat(cutoff)]
            add("isospec_torus_duality", argv, _json_out({"isospectral": True, "cutoff": _rat(cutoff)}),
                [path, path])
        for _ in range(2):
            n, p, alpha, beta, r2 = sphere_params(rng)
            cutoff = sphere_cutoff(alpha, beta, r2, 300)
            argv = ["isospec", "--left-kind", "sphere", "--left-n", str(n), "--left-p", str(p),
                    "--left-alpha", _rat(alpha), "--left-beta", _rat(beta), "--left-r2", _rat(r2),
                    "--right-kind", "sphere", "--right-n", str(n), "--right-p", str(n - p),
                    "--right-alpha", _rat(beta), "--right-beta", _rat(alpha), "--right-r2", _rat(r2),
                    "--cutoff", _rat(cutoff)]
            add("isospec_sphere_duality", argv, _json_out({"isospectral": True, "cutoff": _rat(cutoff)}))
        for i in range(2):
            s = F(rng.randint(5, 12), 4)
            diags = ([F(1), s], [F(1), s + F(1, 4)])
            paths = [_write(workdir, f"{tag}stretched-{i}-{j}.json", diagonal_lattice(d).to_json_dict())
                     for j, d in enumerate(diags)]
            alpha, beta = weight(rng), weight(rng)
            walk = F(40)
            cutoff = walk * min(alpha, beta)
            argv = ["isospec", "--left-kind", "torus", "--left-lattice", paths[0], "--left-p", "1",
                    "--left-alpha", _rat(alpha), "--left-beta", _rat(beta),
                    "--right-kind", "torus", "--right-lattice", paths[1], "--right-p", "1",
                    "--right-alpha", _rat(alpha), "--right-beta", _rat(beta), "--cutoff", _rat(cutoff)]
            def want(diags=diags, a=alpha, b=beta, w=walk, c=cutoff):
                refs = [merge(*torus_parts(diagonal_table(d, w), 2, 1, a, b, c)) for d in diags]
                key, lm, rm = divergence(*refs, c)
                return {"isospectral": False, "cutoff": _rat(c),
                        "first_divergence": {"key": _rat(key), "left_multiplicity": lm,
                                             "right_multiplicity": rm}}

            add("isospec_divergence", argv, _json_out(want, code=1), paths)
        # recover: base-set on a few thousand entries, torus-params, sphere-params, radius.
        for i, size in enumerate((400, 150)):
            alpha, beta = F(rng.randint(2, 5), 2), F(rng.randint(6, 9), 2)
            base = {F(rng.randint(1, 40000), rng.randint(1, 12)) for _ in range(size)}
            cutoff = max(base) * max(alpha, beta)
            m = merge({alpha * c: 1 for c in base}, {beta * c: 2 for c in base})
            path = _write(workdir, f"{tag}base-set-{i}.json", _spectrum_json(TORUS, cutoff, m))
            guarantee = cutoff / max(alpha, beta)
            want = _spectrum_json(TORUS, guarantee, {c: 1 for c in base if c <= guarantee})
            add("recover_base_set", ["recover", "base-set", "--spectrum", path, "--alpha", _rat(alpha),
                                     "--beta", _rat(beta), "--copies-alpha", "1", "--copies-beta", "2"],
                _json_out(want), [path])
        lat = rational_lattice(rng, 3)
        for i, relation in enumerate(("<", ">")):
            m_json, base_json, want = torus_recovery_case(rng, lat, 1 + i, relation)
            paths = [_write(workdir, f"{tag}torus-{i}-m.json", m_json),
                     _write(workdir, f"{tag}torus-{i}-base.json", base_json)]
            add("recover_torus_params", ["recover", "torus-params", "--spectrum", paths[0],
                                         "--base", paths[1], "--n", "3", "--p", str(1 + i)],
                _json_out(_recovery_json(want)), paths)
        for i, relation in enumerate(("<", "half")):
            (n, p, alpha, beta, r2), cutoff, want = sphere_recovery_case(rng, relation)
            ref = sphere_ref(n, p, alpha, beta, r2, cutoff)
            path = _write(workdir, f"{tag}sphere-{i}.json", _spectrum_json(PLAIN, cutoff, ref))
            add("recover_sphere_params", ["recover", "sphere-params", "--spectrum", path, "--n", str(n),
                                          "--p", str(p), "--r2", _rat(r2)],
                _json_out(_recovery_json(want)), [path])
            if relation == "<":
                add("recover_radius", ["recover", "radius", "--spectrum", path, "--alpha", _rat(alpha),
                                       "--beta", _rat(beta), "--n", str(n), "--p", str(p)],
                    _json_out(_rat(r2)), [path])
                # Only the leading key, with a multiplicity no branch admits.
                bad = _write(workdir, f"{tag}sphere-bad-{i}.json",
                             _spectrum_json(PLAIN, cutoff, {min(ref): 1}))
                add("refuse_branch_ambiguous", ["recover", "sphere-params", "--spectrum", bad,
                                                "--n", str(n), "--p", str(p), "--r2", _rat(r2)],
                    _refusal(4, "BranchAmbiguous"), [bad])
        n, p, alpha, beta, r2 = 5, 2, weight(rng), weight(rng), F(1)
        path = _write(workdir, f"{tag}radius.json", _spectrum_json(PLAIN, 1000, sphere_ref(n, p, alpha, beta, r2, 1000)))
        add("recover_radius", ["recover", "radius", "--spectrum", path, "--alpha", _rat(alpha),
                               "--beta", _rat(beta), "--n", "5", "--p", "2"], _json_out("1"), [path])
        # enumerate: the walk and the box scan, on lattice files and Z^n.
        for i, (lat, path) in enumerate(files):
            box = i % 2 == 1
            bound = bound_for_points(lat, 400 if box else 2000)
            want = (lambda lat=lat, b=bound: {
                "bound": _rat(b), "counts": [[str(q), c] for q, c in entries(box_table(lat, b))]})
            add("enumerate_box" if box else "enumerate_walk",
                ["enumerate", "--lattice", path, "--bound", _rat(bound)] + (["--box"] if box else []),
                _json_out(want), [path])
        # Documented refusals, each with one JSON object on stderr.
        add("refuse_bad_flag", ["spectrum", "torus", "--zn", "2", "--p", "1", "--alpha", "1",
                                "--beta", "2", "--cutoff", "0.5"], _refusal(2, "ParseError"))
        add("refuse_bad_flag", ["enumerate", "--zn", "2", "--bound", "4", "--frobnicate"],
            _refusal(2, "ParseError"))
        add("refuse_budget", ["enumerate", "--zn", "3", "--bound", "50"],
            _refusal(3, "BudgetExceeded"), budget="100")
        short = _write(workdir, f"{tag}short-base.json", _spectrum_json(TORUS, F(1, 2), {F(0): 1}))
        zero_only = _write(workdir, f"{tag}zero-only.json", _spectrum_json(TORUS, F(1, 2), {F(0): 3}))
        add("refuse_cutoff_too_small", ["recover", "torus-params", "--spectrum", zero_only,
                                        "--base", short, "--n", "3", "--p", "1"],
            _refusal(4, "CutoffTooSmall"), [zero_only, short])
        # Known defect: a malformed lattice shape must exit 2 with a JSON error.
        malformed = _write(workdir, f"{tag}malformed-lattice.json", {"n": 2, "basis": 5})
        add("refuse_malformed_lattice", ["enumerate", "--lattice", malformed, "--bound", "4"],
            _refusal(2, "ParseError"), [malformed], known_defect=True)
    rng.shuffle(jobs)
    return jobs


def build(name: str, seed: int, workdir: Path, traced: bool) -> list[Job]:
    """The job list of one workload; the same seed gives the same inputs."""
    return globals()[name](random.Random(f"{name}:{seed}"), workdir, traced)
