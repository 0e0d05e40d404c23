"""Golden CLI corpus: exact stdout and exit code of recorded ``cli.main`` runs.

The fixtures and the rules a run is held to are in ``golden_replay``, which
also replays them through the installed console script.
"""

import pytest

from golden_replay import FIXTURES, load, mismatch
from hodgespec.cli import main
from hodgespec.lattice import BUDGET_ENV_VAR


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
