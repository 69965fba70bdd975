"""The package does not depend on the benchmark: `perfbench/tracer.py`
wraps package functions from outside, and no module under `src/slv`
imports `perfbench` or the tracer."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "slv"
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
