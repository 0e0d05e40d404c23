"""The golden CLI corpus: its recorded runs and the rules a replay is held to.

Each ``golden/*.json`` fixture holds one run: ``argv``, an optional ``env``,
the ``exit`` code and the exact ``stdout``.  An argument written ``@name``
stands for the input file ``golden/inputs/name``.  The fixtures were recorded
once from an earlier, independently tested state of the program; they are a
byte-for-byte guard for refactors, so a mismatch means the program changed,
never that the fixture should be rewritten.  A refusal (exit code 2 or more)
must print exactly one ``{"error", "message"}`` object of under 1000 bytes
on stderr.

The module uses the standard library only, so it runs where the package is
installed but the checkout is not importable.  Run as a script, it replays
every fixture through the ``hodgespec`` console script on ``PATH`` and exits
nonzero when any run differs::

    env -u PYTHONPATH -u HODGESPEC_BUDGET python tests/golden_replay.py
"""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = sorted(GOLDEN.glob("*.json"))


@dataclass(frozen=True)
class Case:
    """One recorded run, with every ``@name`` argument made an input path."""

    argv: list[str]
    env: dict[str, str]
    stdout: str
    exit: int


def load(path: Path) -> Case:
    case = json.loads(path.read_text())
    argv = [
        str(GOLDEN / "inputs" / arg[1:]) if arg.startswith("@") else arg for arg in case["argv"]
    ]
    return Case(argv, case.get("env", {}), case["stdout"], case["exit"])


def mismatch(case: Case, stdout: bytes, code: int, stderr: bytes) -> str | None:
    """How a run breaks its recording or the refusal rule, or None when it holds."""
    if stdout != case.stdout.encode():
        return f"stdout differs from the recording: {stdout[:200]!r}"
    if code != case.exit:
        return f"exit code {code}, recorded {case.exit}"
    if code < 2:
        return None
    try:
        payload = json.loads(stderr)
    except ValueError:
        payload = None
    if not isinstance(payload, dict) or set(payload) != {"error", "message"}:
        return f"stderr is not one error object: {stderr[:200]!r}"
    if len(stderr) >= 1000:
        return f"stderr takes {len(stderr)} bytes, not under 1000"
    return None


def main() -> int:
    failed = []
    for path in FIXTURES:
        case = load(path)
        run = subprocess.run(
            ["hodgespec", *case.argv], capture_output=True, env={**os.environ, **case.env}
        )
        problem = mismatch(case, run.stdout, run.returncode, run.stderr)
        if problem:
            failed.append(path.stem)
            print(f"{path.stem}: {problem}", file=sys.stderr)
    print(f"{len(FIXTURES)} golden runs, {len(failed)} differ")
    return 1 if failed or not FIXTURES else 0


if __name__ == "__main__":
    sys.exit(main())
