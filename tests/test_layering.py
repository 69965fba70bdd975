"""The package does not depend on the benchmark: `perfbench/tracer.py`
wraps package functions from outside, and no module under `src/slv`
imports `perfbench` or the tracer. Nor does it import anything that is
neither in the standard library nor a declared dependency: a package
that is merely installed (scipy, say) is not one."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "slv"
FORBIDDEN = {"perfbench", "tracer"}


def imported_names(tree: ast.AST) -> list[str]:
    """Every module an import statement or an `import_module`/`__import__`
    call with a literal name refers to, and every imported name."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in {"import_module", "__import__"}:
            names += [arg.value for arg in node.args if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
    return names


def test_no_package_module_imports_the_benchmark():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 12
    for path in modules:
        names = imported_names(ast.parse(path.read_text(encoding="utf-8")))
        bad = [name for name in names if FORBIDDEN.intersection(name.split("."))]
        assert bad == [], f"{path.name} imports {bad}"


def test_the_guard_sees_each_import_form():
    source = "import perfbench.tracer\nfrom perfbench import tracer\nfrom . import tracer\nimportlib.import_module('perfbench')\n"
    names = imported_names(ast.parse(source))
    assert sum(bool(FORBIDDEN.intersection(name.split("."))) for name in names) == 5


def absolute_imports(tree: ast.AST) -> list[str]:
    """The top-level module of every absolute import statement."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def undeclared(names: list[str]) -> list[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_") for dep in project["dependencies"]}
    return [name for name in names if name not in sys.stdlib_module_names and name.lower() not in declared]


def test_every_package_import_is_the_standard_library_or_a_dependency():
    for path in sorted(SRC.rglob("*.py")):
        names = absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        assert undeclared(names) == [], f"{path.name} imports undeclared modules"


def test_the_dependency_guard_sees_an_undeclared_import():
    source = "import scipy.ndimage\nfrom scipy import ndimage\nimport numpy as np\nimport json\nfrom __future__ import annotations\nfrom . import geometry\n"
    assert undeclared(absolute_imports(ast.parse(source))) == ["scipy", "scipy"]
