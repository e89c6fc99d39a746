"""The package is pure Python with no runtime dependencies: every import
under src/zddgb names a zddgb module or a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zddgb"


def imported_roots(tree: ast.AST):
    """(line, top-level module name) of every absolute import in tree;
    relative imports stay inside the package and are skipped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_stdlib_and_itself():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = [
        f"{path.name}:{line}: {root}"
        for path in modules
        for line, root in imported_roots(ast.parse(path.read_text(), str(path)))
        if root != "zddgb" and root not in sys.stdlib_module_names
    ]
    assert foreign == []
