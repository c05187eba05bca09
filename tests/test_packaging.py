"""The package stays stdlib-only: no import outside the standard library
and no declared runtime dependency."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "misere"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = sorted(
        "%s: %s" % (path.name, name)
        for path in modules for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"misere"})
    assert foreign == []


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert "dependencies = []" in project.splitlines()
