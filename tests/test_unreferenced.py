"""No definition in the package goes uncalled.

Every non-dunder method in src/indecpoly must occur as a name, an attribute
or an import alias somewhere in src/ or tests/, outside its own definition;
methods are matched by name only.  A module-level function counts as used
only when the package itself references it: from its own module (outside
its definition), by an import from that module, or as <module alias>.<name>,
in any module of src/indecpoly, __init__.py included.  So a function that
shares its name with a used method (or with a function of another module)
does not pass unnoticed, and one that only tests call belongs in tests/.

Every module-level import of a package module other than __init__.py is
used as a name in that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "indecpoly"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _functions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _methods(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
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


def _module_aliases(tree):
    """{local name: package module} for every import that binds a module."""
    return {alias.asname or alias.name: alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name in MODULES}


def _qualified_references(tree):
    """(module, name, line) for every import from a package module and every
    <module alias>.<name> or <...>.<module>.<name> attribute."""
    aliases = _module_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rpartition(".")[2]
            if module in MODULES:
                for alias in node.names:
                    yield module, alias.name, node.lineno
        elif isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in aliases:
                yield aliases[base.id], node.attr, node.lineno
            elif isinstance(base, ast.Attribute) and base.attr in MODULES:
                yield base.attr, node.attr, node.lineno


def _outside(node, uses, path):
    return [(p, line) for p, line in uses
            if not (p == path and node.lineno <= line <= node.end_lineno)]


def test_every_definition_is_referenced():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    trees = {path: _parse(path) for path in files}
    refs, qualified = {}, {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
        if path.parent == PACKAGE:
            for module, name, line in _qualified_references(tree):
                qualified.setdefault((module, name), []).append((path, line))
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = trees[path]
        own = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                own.setdefault(node.id, []).append((path, node.lineno))
        for node in _functions(tree):
            uses = own.get(node.name, []) + qualified.get((path.stem, node.name), [])
            if not _outside(node, uses, path):
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
        for node in _methods(tree):
            if not _outside(node, refs.get(node.name, []), path):
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreferenced == []


def test_every_module_level_import_is_used():
    # __init__.py re-exports what it imports, so it is left out
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in names:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []
