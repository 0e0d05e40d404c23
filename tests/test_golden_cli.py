"""Golden CLI corpus: exact stdout and exit code of recorded ``cli.main`` runs.

Each ``tests/golden/*.json`` fixture holds one run: ``argv``, an optional
``env``, the ``exit`` code and the exact ``stdout``.  An argument written
``@name`` stands for the input file ``tests/golden/inputs/name``.  The
fixtures were recorded once from an earlier, independently tested state of
the program; they are a byte-for-byte guard for refactors, so a mismatch
means the program changed, never that the fixture should be rewritten.  A
refusal's stderr must be one error object of under 1000 bytes.
"""

import json
from pathlib import Path

import pytest

from hodgespec.cli import main
from hodgespec.lattice import BUDGET_ENV_VAR

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = sorted(GOLDEN.glob("*.json"))


def test_corpus_is_present():
    assert len(FIXTURES) >= 100


@pytest.mark.parametrize("path", FIXTURES, ids=lambda path: path.stem)
def test_golden_run(path, capsys, monkeypatch):
    case = json.loads(path.read_text())
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    for name, value in case.get("env", {}).items():
        monkeypatch.setenv(name, value)
    argv = [
        str(GOLDEN / "inputs" / arg[1:]) if arg.startswith("@") else arg
        for arg in case["argv"]
    ]
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert code == case["exit"]
    if code >= 2:
        payload = json.loads(captured.err)
        assert set(payload) == {"error", "message"}
        assert len(captured.err.encode()) < 1000  # error messages stay short
