"""Print the physical and code line counts of each src/hodgespec module, and the total.

Code lines are the lines that are not blank, comment or docstring.  Run as

    python tests/line_counts.py

It prints a Markdown table, for a job summary or a terminal.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "hodgespec"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def counts(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main() -> None:
    rows = [(path.name, *counts(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    print("| `src/hodgespec` module | lines | code lines |")
    print("|---|---:|---:|")
    for name, lines, code in rows:
        print(f"| {name} | {lines} | {code} |")
    print(f"| **total** | {sum(r[1] for r in rows)} | {sum(r[2] for r in rows)} |")


if __name__ == "__main__":
    main()
