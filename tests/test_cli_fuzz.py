"""CLI fuzz: argv drawn from the subcommand grammar, hostile JSON payload files.

Whatever the input, ``cli.main`` must return an exit code in 0-4 without
raising, and on codes 2-4 standard error must be exactly one
``{"error", "message"}`` object.  HODGESPEC_BUDGET is small, so every run is
bounded.  Copy counts stay small: they are not charged to the budget.
``--zn`` is, as n^3 matrix steps, and so are the exact binomials that ``--n``
and ``--p`` make, as k * bit_length(N) for C(N, k) from k >= 64 on, so both
are drawn on both sides of the budget and far past it.  A second fuzz drives
the recovery commands under the default budget with a huge ``--n``, whose
binomial counts run past Python's 4300-digit limit for int-to-string
conversion.  Hypothesis runs derandomized, so every run draws the same
examples.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from hodgespec.cli import main
from hodgespec.lattice import BUDGET_ENV_VAR, DEFAULT_BUDGET, Lattice, standard_lattice
from hodgespec.sphere import SphereOperator
from hodgespec.sphere import spectrum as sphere_spectrum
from hodgespec.torus import TorusOperator, f_spectrum, laplace0_spectrum

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def mostly(usual, hostile):
    """``usual`` on most draws, ``hostile`` on about one in thirty, so that
    most runs get past argument checking and a few fail at each step."""
    return st.integers(0, 29).flatmap(lambda i: hostile if i == 29 else usual)


numbers = mostly(
    st.sampled_from(["1", "2", "3", "5", "12", "1/2", "3/2", "5/3", "0"]),
    st.sampled_from(["-1", "1.5", "1e3", "abc", "", " 2", "1/0", "10" * 12, "9" * 5000]),
)
hostile_counts = st.sampled_from(["-1", "0", "7", "x", "2.0"])
dims = mostly(st.integers(1, 4).map(str), hostile_counts)
# 12^3 fits the fuzz budget of 2000, 13^3 does not
lattice_dims = mostly(
    st.one_of(st.integers(1, 4), st.integers(5, 16), st.sampled_from([300, 10**9])).map(str),
    hostile_counts,
)
degrees = mostly(st.integers(0, 4).map(str), hostile_counts)
# --n and --p are drawn together, half of them large: C(300, 100) fits the fuzz
# budget of 2000 as 100 x 9 bits, C(10^9, 100) and C(10^100, 100) do not
large_sizes = st.tuples(
    st.sampled_from([300, 10**9, 10**100]).map(str), st.sampled_from(["2", "100"])
)
# "@i" names payload file i (0 and 1 hold spectra, 2 a lattice), "-" the stdin payload
missing = st.just("/nonexistent/input.json")
spectrum_files = mostly(st.sampled_from(["@0", "@1", "-"]), missing)
lattice_files = mostly(st.sampled_from(["@2", "-"]), missing)


def flag(name, values=None):
    return st.just([name]) if values is None else values.map(lambda value: [name, value])


def sizes(prefix="--"):
    pairs = st.one_of(st.tuples(dims, degrees), large_sizes)
    return pairs.map(lambda pair: [f"{prefix}n", pair[0], f"{prefix}p", pair[1]])


def lattice_source(prefix="--"):
    return st.one_of(flag(f"{prefix}zn", lattice_dims), flag(f"{prefix}lattice", lattice_files))


def side(name):
    dash = f"--{name}-"
    common = [flag(f"{dash}alpha", numbers), flag(f"{dash}beta", numbers)]
    torus = [flag(f"{dash}kind", st.just("torus")), lattice_source(dash), flag(f"{dash}p", degrees)]
    sphere = [flag(f"{dash}kind", st.just("sphere")), sizes(dash), flag(f"{dash}r2", numbers)]
    return st.sampled_from([torus + common, sphere + common, torus[:2] + sphere[1:] + common])


output = [flag("--mode", mostly(st.sampled_from(["merged", "generic"]), st.just("x"))),
          flag("--format", st.sampled_from(["json", "csv"]))]
parameters = [flag("--alpha", numbers), flag("--beta", numbers)]

GRAMMAR = {
    ("spectrum", "torus"): st.just(
        [lattice_source(), flag("--p", degrees), *parameters, flag("--cutoff", numbers), *output]
    ),
    ("spectrum", "sphere"): st.just(
        [sizes(), *parameters, flag("--r2", numbers), flag("--cutoff", numbers), *output]
    ),
    ("isospec",): st.builds(
        lambda left, right: left + right + [flag("--cutoff", numbers)], side("left"), side("right")
    ),
    ("recover", "base-set"): st.just(
        [flag("--spectrum", spectrum_files), *parameters, flag("--copies-alpha", dims),
         flag("--copies-beta", dims)]
    ),
    ("recover", "torus-params"): st.just(
        [flag("--spectrum", spectrum_files), flag("--base", spectrum_files), sizes()]
    ),
    ("recover", "sphere-params"): st.just(
        [flag("--spectrum", spectrum_files), sizes(), flag("--r2", numbers)]
    ),
    ("recover", "radius"): st.just(
        [flag("--spectrum", spectrum_files), *parameters, sizes()]
    ),
    ("enumerate",): st.just([lattice_source(), flag("--bound", numbers), flag("--box")]),
}


@st.composite
def argvs(draw):
    words = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = list(words)
    for strategy in draw(GRAMMAR[words]):
        argv += draw(mostly(strategy, st.just([])))  # now and then a flag goes missing
    return argv + draw(mostly(st.just([]), st.sampled_from([["--frobnicate"], ["--help"]])))


def encoded(payload) -> bytes:
    return json.dumps(payload).encode()


Z3 = standard_lattice(3)
SPECTRA = [
    f_spectrum(TorusOperator(Z3, 1, F(3), F(5)), 10).to_json_dict(),
    f_spectrum(TorusOperator(Z3, 1, F(5), F(5)), 10).to_json_dict(),
    laplace0_spectrum(Z3, 4).to_json_dict(),
    sphere_spectrum(SphereOperator(3, 1, F(1), F(1)), 12).to_json_dict(),
    sphere_spectrum(SphereOperator(2, 1, F(1), F(2)), 12).to_json_dict(),
]
LATTICES = [
    Lattice(((F(1), F(1, 2)), (F(0), F(2)))).to_json_dict(),
    {"n": 2, "basis": [["1", "0"], ["1/2", "1"]], "layout": "column-major"},
]


@st.composite
def tampered(draw, examples):
    """A well-formed payload with one entry's multiplicity or one field replaced."""
    payload = json.loads(json.dumps(draw(st.sampled_from(examples))))
    if "entries" in payload and draw(st.booleans()):
        i = draw(st.integers(0, len(payload["entries"]) - 1))
        payload["entries"][i][1] = draw(st.integers(-1, 9))
    else:
        payload[draw(st.sampled_from(sorted(payload)))] = draw(json_values)
    return payload


scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 50), numbers)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(
            st.sampled_from(["n", "basis", "layout", "unit", "cutoff", "entries"]), inner,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


def nested(depth: int, opener: bytes, closer: bytes) -> bytes:
    return opener * depth + closer * depth


hostile_payloads = st.one_of(
    json_values.map(encoded),
    st.binary(max_size=16),
    st.sampled_from([
        b"\xff\xfe{}",
        b"\xef\xbb\xbf{}",
        b'{"n": ' + b"7" * 5000 + b"}",
        b'{"unit": "plain", "cutoff": "1", "entries": [["' + b"9" * 5000 + b'", 1]]}',
    ]),
    st.builds(
        nested, st.sampled_from([50, 900, 100_000]), st.sampled_from([b"[", b'{"n":']),
        st.sampled_from([b"]", b"}", b""]),
    ),
    st.builds(
        lambda depth: b'{"n": 1, "basis": [[' + nested(depth, b"[", b"]") + b"]]}",
        st.sampled_from([100, 900, 990]),
    ),
)


def payloads(examples):
    """Well-formed, tampered and hostile payloads, a third each."""
    return st.one_of(
        st.sampled_from(examples).map(encoded), tampered(examples).map(encoded), hostile_payloads
    )


def run_cli(argv, stdin=None, budget=2000):
    """(exit code, stdout, stderr) of one ``cli.main`` run, under the fuzz budget by default."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {BUDGET_ENV_VAR: str(budget)}), \
            mock.patch.object(sys, "stdin", stdin), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(
    argvs(),
    st.tuples(payloads(SPECTRA), payloads(SPECTRA), payloads(LATTICES)),
    payloads(SPECTRA + LATTICES),
)
def test_cli_answers_every_input_with_a_documented_exit(tmp_path_factory, argv, files, piped):
    folder = tmp_path_factory.mktemp("fuzz")
    paths = []
    for i, content in enumerate(files):
        path = folder / f"{i}.json"
        path.write_bytes(content)
        paths.append(str(path))
    argv = [paths[int(word[1:])] if word.startswith("@") else word for word in argv]
    code, out, err = run_cli(argv, io.TextIOWrapper(io.BytesIO(piped), encoding="utf-8"))
    assert code in range(5), argv
    if code >= 2:
        assert out == ""
        assert set(json.loads(err)) == {"error", "message"}, err


RECOVERIES = {
    "radius": ["--alpha", "1", "--beta", "2"],
    "torus-params": ["--base", "{base}"],
    "sphere-params": ["--r2", "1"],
}


RECOVERY_PAYLOADS = st.sampled_from(
    SPECTRA + [{"unit": "plain", "cutoff": "1", "entries": [["1", 1]]}]
)


def run_recovery(tmp_path_factory, command, n, p, payload, budget=2000):
    """Run ``recover <command>`` on ``payload`` and check its exit and its error's length."""
    folder = tmp_path_factory.mktemp("recover")
    spectrum, base = folder / "spectrum.json", folder / "base.json"
    spectrum.write_bytes(encoded(payload))
    base.write_bytes(encoded(SPECTRA[2]))
    extra = [word.format(base=base) for word in RECOVERIES[command]]
    argv = ["recover", command, "--spectrum", str(spectrum), "--n", str(n), "--p", str(p), *extra]
    code, out, err = run_cli(argv, budget=budget)
    assert code in range(5), argv
    if code >= 2:
        assert out == ""
        assert set(json.loads(err)) == {"error", "message"}, err
        assert len(err) < 500, err


@settings(FUZZ, max_examples=20)
@given(st.sampled_from(sorted(RECOVERIES)), st.integers(20_000, 100_001), st.integers(1, 7),
       RECOVERY_PAYLOADS)
def test_recovery_with_a_huge_n_gives_a_short_error(tmp_path_factory, command, n, eighths,
                                                     payload):
    # the default budget: the fuzz budget would refuse these binomials before any message
    run_recovery(tmp_path_factory, command, n, n * eighths // 8, payload, DEFAULT_BUDGET)


# C(1000, 100) fits the fuzz budget of 2000 as 100 x 10 bits and C(10^9, 64) as
# 64 x 30 bits; C(10^9, 100) and C(10^100, 64) do not
@settings(FUZZ, max_examples=40)
@given(st.sampled_from(sorted(RECOVERIES)), st.sampled_from([300, 1000, 10**9, 10**100]),
       st.sampled_from([2, 64, 100]), RECOVERY_PAYLOADS)
def test_recovery_sizes_on_both_sides_of_the_budget(tmp_path_factory, command, n, p, payload):
    run_recovery(tmp_path_factory, command, n, p, payload)
