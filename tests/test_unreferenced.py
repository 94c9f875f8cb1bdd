"""No definition in the package goes uncalled.

Every module-level function and every non-dunder method in src/indecpoly
must occur as a name, an attribute or an import alias somewhere in src/ or
tests/, outside its own definition.  The check is by name only, so a
definition that shares its name with a used one passes unnoticed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "indecpoly"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item


def _references(tree):
    """(name, line) of every Name, Attribute and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def test_every_definition_is_referenced():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    trees = {path: _parse(path) for path in files}
    refs = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(trees[path]):
            outside = [
                (p, line) for p, line in refs.get(node.name, [])
                if not (p == path and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreferenced == []
