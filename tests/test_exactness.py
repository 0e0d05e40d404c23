"""No floating point anywhere in the package: a syntax-level guard on every module."""

import ast
from pathlib import Path

import pytest

import hodgespec

MODULES = sorted(Path(hodgespec.__file__).parent.glob("*.py"))
FLOAT_CALLS = {"float", "round", "complex"}
FLOAT_MATH = {"sqrt", "log", "log2", "log10", "exp", "pi", "e", "inf", "nan"}


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in FLOAT_CALLS):
            found.append(f"line {node.lineno}: call to {node.func.id}")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr in FLOAT_MATH):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [alias.name for alias in node.names if alias.name in FLOAT_MATH]
            found += [f"line {node.lineno}: math.{name}" for name in names]
    return found


def test_every_module_is_checked():
    assert {"lattice.py", "linalg.py", "sphere.py", "cli.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_uses_no_floats(path):
    assert float_uses(ast.parse(path.read_text(), filename=str(path))) == []


def test_guard_catches_each_float_form():
    source = "x = 0.5\ny = float(x) + round(x) + complex(1)\n"
    source += "import math\nz = math.sqrt(2) * math.pi\nfrom math import log\nw = 2j\n"
    assert len(float_uses(ast.parse(source))) == 8
