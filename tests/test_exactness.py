"""No floating point anywhere in the package or in the test-side oracles it is
checked against: a syntax-level guard on every module."""

import ast
from pathlib import Path

import pytest

import hodgespec

TESTS = Path(__file__).parent
PACKAGE = sorted(Path(hodgespec.__file__).parent.glob("*.py"))
MODULES = PACKAGE + [TESTS / "exterior.py", TESTS / "oracles.py"]
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
    names = {path.name for path in MODULES}
    assert {"lattice.py", "linalg.py", "sphere.py", "cli.py", "exterior.py", "oracles.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_uses_no_floats(path):
    assert float_uses(ast.parse(path.read_text(), filename=str(path))) == []


def test_guard_catches_each_float_form():
    source = "x = 0.5\ny = float(x) + round(x) + complex(1)\n"
    source += "import math\nz = math.sqrt(2) * math.pi\nfrom math import log\nw = 2j\n"
    assert len(float_uses(ast.parse(source))) == 8


# Only one private function may build a WeightedSpectrum without running its
# constructor: multiset._from_int_keys, which checks the int keys itself.
TRUSTED_BUILDER = ("multiset.py", "_from_int_keys")


class _Bypasses(ast.NodeVisitor):
    """Calls that make an instance or set its fields without the constructor.

    Any ``__new__`` call, and any ``__setattr__`` call on something other
    than ``self`` (a frozen class setting its own fields in ``__post_init__``),
    recorded with the name of the function it sits in.
    """

    def __init__(self) -> None:
        self.found: list[tuple[str, int]] = []
        self.scope = "<module>"

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("__new__", "__setattr__"):
            target = node.args[0] if node.args else None
            on_self = isinstance(target, ast.Name) and target.id == "self"
            if func.attr == "__new__" or not on_self:
                self.found.append((self.scope, node.lineno))
        self.generic_visit(node)


def bypasses(tree: ast.AST) -> list[tuple[str, int]]:
    visitor = _Bypasses()
    visitor.visit(tree)
    return visitor.found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_only_the_int_keyed_builder_skips_the_constructor(path):
    found = bypasses(ast.parse(path.read_text(), filename=str(path)))
    if path.name == TRUSTED_BUILDER[0]:
        assert found and {scope for scope, _ in found} == {TRUSTED_BUILDER[1]}
    else:
        assert found == []


def test_bypass_guard_catches_each_form():
    source = (
        "def build(unit):\n"
        "    spectrum = object.__new__(WeightedSpectrum)\n"
        "    other = WeightedSpectrum.__new__(WeightedSpectrum)\n"
        "    object.__setattr__(spectrum, 'unit', unit)\n"
        "class Op:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'alpha', 1)\n"
    )
    assert bypasses(ast.parse(source)) == [("build", 2), ("build", 3), ("build", 4)]


# The parameter rules (exact types, signs, degree ranges) live in rationals.py,
# so no other package module builds the errors they raise.
RULE_MODULE = "rationals.py"
RULE_ERRORS = {"DegreeOutOfRange", "NonpositiveScalar", "NonpositiveMin"}


def rule_error_calls(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in RULE_ERRORS:
                found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.stem)
def test_only_the_rules_module_builds_parameter_rule_errors(path):
    found = rule_error_calls(ast.parse(path.read_text(), filename=str(path)))
    assert found if path.name == RULE_MODULE else found == []


def test_rule_error_guard_catches_each_form():
    source = (
        "raise DegreeOutOfRange('p')\n"
        "raise errors.NonpositiveScalar('alpha')\n"
        "rule = _positive(NonpositiveMin, 'minimum', x)\n"
        "error = NonpositiveMin('minimum')\n"
    )
    found = rule_error_calls(ast.parse(source))
    assert found == ["line 1: DegreeOutOfRange", "line 2: NonpositiveScalar", "line 4: NonpositiveMin"]
