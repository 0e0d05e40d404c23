"""Golden CLI corpus: exact stdout and exit code of recorded ``cli.main`` runs.

The fixtures and the rules a run is held to are in ``golden_replay``, which
also replays them through the installed console script.  The witness each
exit-1 ``isospec`` run prints is recounted by ``oracles.check_witness``.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from golden_replay import FIXTURES, GOLDEN, load, mismatch
from hodgespec.cli import main
from hodgespec.lattice import BUDGET_ENV_VAR, Lattice, standard_lattice
from hodgespec.sphere import SphereOperator
from hodgespec.torus import TorusOperator
from oracles import check_witness


def test_corpus_is_present():
    assert len(FIXTURES) >= 100


@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: path.stem)
def test_golden_run(path, capsys, monkeypatch):
    case = load(path)
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    for name, value in case.env.items():
        monkeypatch.setenv(name, value)
    code = main(case.argv)
    captured = capsys.readouterr()
    assert mismatch(case, captured.out.encode(), code, captured.err.encode()) is None


# Each wide-key refusal records which refusal it is: the walk's visit budget and
# the input constructor exit 3 with no stdout as well.
@pytest.mark.parametrize("name", ["enumerate_refuse_wide_keys", "base_set_refuse_wide_keys"])
def test_a_wide_key_refusal_is_told_from_other_refusals(name):
    case = load(GOLDEN / f"{name}.json")
    assert (case.error, case.message_prefix) == ("BudgetExceeded",
                                                 "writing the keys in decimal needs ")
    assert mismatch(case, b"", 3, b'{"error": "BudgetExceeded", "message": '
                    b'"writing the keys in decimal needs 80 work, budget is 50"}') is None
    for stderr in [
        b'{"error": "BudgetExceeded", "message": "norm enumeration exceeded budget of 500 '
        b'candidate visits"}',
        b'{"error": "ParseError", "message": "writing the keys in decimal needs 80 work"}',
    ]:
        assert mismatch(case, b"", 3, stderr) is not None


WITNESS_RUNS = ["isospec_sphere_left_only_key_exit1", "isospec_sphere_radius_exit1",
                "isospec_torus_lattices_exit1", "isospec_torus_shared_key_exit1"]


def side_operator(flags: dict, side: str):
    """The operator of one isospec side, read off its recorded flags."""
    def flag(name):
        return flags.get(f"--{side}-{name}")

    p, alpha, beta = int(flag("p")), F(flag("alpha")), F(flag("beta"))
    if flag("kind") == "sphere":
        return SphereOperator(int(flag("n")), p, alpha, beta, F(flag("r2")))
    if flag("zn"):
        return TorusOperator(standard_lattice(int(flag("zn"))), p, alpha, beta)
    lattice = Lattice.from_json_dict(json.loads(Path(flag("lattice")).read_text()))
    return TorusOperator(lattice, p, alpha, beta)


def test_every_exit1_isospec_run_has_its_witness_recounted():
    assert [path.stem for path in FIXTURES if load(path).exit == 1] == WITNESS_RUNS


@pytest.mark.parametrize("name", WITNESS_RUNS)
def test_isospec_witness_recounts(name):
    case = load(GOLDEN / f"{name}.json")
    flags = dict(zip(case.argv[1::2], case.argv[2::2]))
    left, right = side_operator(flags, "left"), side_operator(flags, "right")
    check_witness(left, right, json.loads(case.stdout)["first_divergence"])
