"""Syntax-level guards on every module: no floating point anywhere in the
package or in the test-side oracles it is checked against, one constructor
bypass, the parameter rules in one module, one work-budget rule, an acyclic
import graph, and no dead code in the package."""

import ast
from graphlib import CycleError, TopologicalSorter
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

    Any ``__new__`` call, and any ``__setattr__`` call, ``vars(x)`` or
    ``x.__dict__`` on something other than ``self`` (a record storing its own
    fields in ``__init__``), recorded with the name of the function it sits in.
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
        target = node.args[0] if node.args else None
        if isinstance(func, ast.Attribute) and func.attr in ("__new__", "__setattr__"):
            if func.attr == "__new__" or not _is_self(target):
                self.found.append((self.scope, node.lineno))
        elif isinstance(func, ast.Name) and func.id == "vars" and target and not _is_self(target):
            self.found.append((self.scope, node.lineno))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "__dict__" and not _is_self(node.value):
            self.found.append((self.scope, node.lineno))
        self.generic_visit(node)


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


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
        "    vars(spectrum).update(unit=unit)\n"
        "    spectrum.__dict__['unit'] = unit\n"
        "    names = vars()\n"
        "class Op:\n"
        "    def __init__(self, alpha):\n"
        "        object.__setattr__(self, 'alpha', alpha)\n"
        "        vars(self).update(alpha=alpha)\n"
        "        self.__dict__['alpha'] = alpha\n"
    )
    found = bypasses(ast.parse(source))
    assert found == [("build", 2), ("build", 3), ("build", 4), ("build", 5), ("build", 6)]


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


# One work-budget rule: rationals._charge reads HODGESPEC_BUDGET's limit and
# raises the refusal for every charge.  Only the walk checks the limit in its
# own loop, since a call per visited node would slow every torus spectrum.
BUDGET_READERS = {"rationals.py: _charge", "lattice.py: _walk"}
BUDGET_ERRORS = {"BudgetExceeded", "BoxTooLarge"}


def budget_uses(module: str, tree: ast.Module) -> list[str]:
    """The top-level statements that read the limit or raise a budget error, by name."""
    found = []
    for statement in tree.body:
        scope = getattr(statement, "name", "<module>")
        for node in ast.walk(statement):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                hit = (getattr(func, "id", None) or getattr(func, "attr", None)) in BUDGET_ERRORS
            elif isinstance(node, ast.ImportFrom):
                hit = any(alias.name == "_resolve_budget" for alias in node.names)
            else:
                hit = "_resolve_budget" in (getattr(node, "id", None), getattr(node, "attr", None))
            if hit:
                found.append(f"{module}: {scope}")
    return found


def test_one_rule_reads_the_budget_and_refuses():
    found = set()
    for path in PACKAGE:
        found.update(budget_uses(path.name, ast.parse(path.read_text(), filename=str(path))))
    assert found == BUDGET_READERS


def test_budget_guard_catches_each_form():
    source = (
        "from .lattice import _resolve_budget\n"
        "def terms(work):\n"
        "    if work > lattice._resolve_budget():\n"
        "        raise BudgetExceeded('terms')\n"
        "def box(cells):\n"
        "    raise errors.BoxTooLarge('cells')\n"
        "def charged(cells):\n"
        "    _charge(cells, lambda: 'cells', BoxTooLarge)\n"
    )
    assert budget_uses("sphere.py", ast.parse(source)) == [
        "sphere.py: <module>", "sphere.py: terms", "sphere.py: terms", "sphere.py: box"
    ]


# The package's imports form no cycle, so no module needs a function-local
# import to break one.  The sphere and recovery modules reach nothing in
# lattice.py, directly or through another module: the torus is its only user.
LATTICE_FREE = ("multiset.py", "sphere.py", "isospec.py")


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, at module level or inside functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:  # from .x import name
                found.add(node.module.split(".")[0] + ".py")
            else:  # from . import x, y
                found.update(alias.name + ".py" for alias in node.names)
    return found


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the import graph, as the modules along it, or [] if there is none."""
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        return exc.args[1]
    return []


def reached(graph: dict[str, set[str]], module: str) -> set[str]:
    """Every module that ``module`` imports, directly or through other modules."""
    seen, stack = set(), [module]
    while stack:
        for other in graph.get(stack.pop(), ()):
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


def test_package_import_graph_is_acyclic():
    graph = {
        path.name: package_imports(ast.parse(path.read_text(), filename=str(path)))
        for path in PACKAGE
    }
    assert {"multiset.py", "rationals.py", "linalg.py"} <= graph["lattice.py"]
    assert import_cycle(graph) == []
    assert [name for name in LATTICE_FREE if "lattice.py" in reached(graph, name)] == []


def test_import_guard_catches_each_form():
    walk = ast.parse("from . import linalg, spectra\nfrom .rationals import _charge\n")
    spectra = ast.parse(
        "from .rationals import _echo\n"
        "def build():\n"
        "    from .walk import _walk  # closes the cycle inside a function\n"
    )
    graph = {"walk.py": package_imports(walk), "spectra.py": package_imports(spectra)}
    assert graph == {
        "walk.py": {"linalg.py", "spectra.py", "rationals.py"},
        "spectra.py": {"rationals.py", "walk.py"},
    }
    cycle = import_cycle(graph)
    assert cycle[0] == cycle[-1] and set(cycle) == {"spectra.py", "walk.py"}
    assert reached(graph, "spectra.py") == {"rationals.py", "walk.py", "linalg.py", "spectra.py"}
    assert import_cycle({"walk.py": {"spectra.py"}, "spectra.py": {"rationals.py"}}) == []


# No dead code: every module-level private name of the package is used by
# another statement of the package, and every module uses what it imports
# (the package's __init__ imports to re-export).


def _defined(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [target.id for target in targets if isinstance(target, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def _referenced(node: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported anywhere under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def dead_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level private names that no other top-level statement refers to."""
    statements = [(stmt, _referenced(stmt)) for tree in trees.values() for stmt in tree.body]
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for stmt in tree.body
        for name in _defined(stmt)
        if not any(name in names for other, names in statements if other is not stmt)
    ]


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_package_has_no_unused_private_name():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    assert dead_names(trees) == []


@pytest.mark.parametrize(
    "path", [path for path in PACKAGE if path.name != "__init__.py"], ids=lambda path: path.stem
)
def test_module_uses_every_import(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_dead_code_guards_catch_each_form():
    walk = ast.parse(
        "from .rationals import _echo\n"
        "_LIMIT = 3\n"
        "def _helper(x):\n"
        "    return _helper(x - 1) + _LIMIT\n"
        "def _unused():\n"
        "    pass\n"
        "def public():\n"
        "    return _echo(1)\n"
    )
    rationals = ast.parse("def _echo(x):\n    return x\ndef _orphan():\n    pass\n")
    assert dead_names({"walk.py": walk, "rationals.py": rationals}) == [
        "walk.py: _helper", "walk.py: _unused", "rationals.py: _orphan"
    ]
    source = "import math\nimport os.path\nfrom .multiset import _merge, _from_int_keys\n"
    source += "x = math.gcd(4, 6) + _from_int_keys\n"
    assert unused_imports(ast.parse(source)) == ["line 2: os", "line 3: _merge"]
