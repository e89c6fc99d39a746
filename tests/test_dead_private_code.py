"""No private code of the package is dead: every private (`_name`)
function, method or class under src/zddgb, and every private attribute
that a package class assigns in `__init__` (or in `ZddManager.reset`,
which its `__init__` calls), is referenced in src/zddgb or perfbench
outside its own body.  A reference is a name, an attribute, an imported
name or a string constant equal to it; the last covers the names that
perfbench/tracer.py wraps by string."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zddgb"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__"))


def references(tree: ast.AST):
    """(line, name) of every name, attribute, imported name and string
    constant in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


def private_definitions(tree: ast.AST):
    """(name, first line, last line) of each private function, method and
    class in tree, and of each private attribute that a class's `__init__`
    or `reset` assigns, with the lines of that method as its body."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and is_private(node.name):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for init in node.body:
                if (isinstance(init, ast.FunctionDef)
                        and init.name in ("__init__", "reset")):
                    for sub in ast.walk(init):
                        if (isinstance(sub, ast.Attribute)
                                and isinstance(sub.ctx, ast.Store)
                                and is_private(sub.attr)):
                            yield sub.attr, init.lineno, init.end_lineno


def test_every_private_definition_is_referenced():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for line, name in references(tree):
            refs.setdefault(name, []).append((path, line))
    defined = [
        (path, *d)
        for path, tree in trees.items() if path.parent == PACKAGE
        for d in private_definitions(tree)
    ]
    assert len(defined) > 20
    # the scan reaches the attributes of every class, not only the manager's
    assert {("zdd.py", "_unique"), ("ringstd.py", "_nf_table"),
            ("ringstd.py", "_guard")} <= {
        (path.name, name) for path, name, _, _ in defined}
    dead = [
        f"{path.name}:{first}: {name}"
        for path, name, first, last in defined
        if not any(p != path or not first <= line <= last
                   for p, line in refs.get(name, ()))
    ]
    assert dead == []
