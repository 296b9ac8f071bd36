"""Every module of the package uses every name it imports, and every
private helper it defines.

No linter ships with the toolchain, so this walks the syntax tree: a name
bound by an import must appear as a name somewhere else in the module, or
inside a string annotation.  ``__init__.py`` re-exports and is skipped.  A
module-level private name (``_foo``) must be read somewhere in the package
beyond its own definition, so a dead helper fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import riesz_lab

MODULES = sorted(p for p in Path(riesz_lab.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotation(node: ast.AST) -> ast.expr | None:
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return node.annotation
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.returns
    return None


def _used(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        ann = _annotation(node)
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _used(ast.parse(sub.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


PACKAGE = sorted(Path(riesz_lab.__file__).parent.glob("*.py"))


def _private_names(node: ast.stmt) -> list[str]:
    """Private names a module-level statement binds by a def, a class or an
    assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    else:
        return []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _references(node: ast.AST) -> set[str]:
    """Names a subtree reads: loaded names, attributes and imported names."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def test_no_unreferenced_private_names():
    statements = [(path, node) for path in PACKAGE for node in ast.parse(path.read_text(), filename=str(path)).body]
    refs = [_references(node) for _, node in statements]
    dead = [
        f"{path.name}:{node.lineno} {name}"
        for k, (path, node) in enumerate(statements)
        for name in _private_names(node)
        # a read inside the defining statement (recursion) does not count
        if not any(name in r for j, r in enumerate(refs) if j != k)
    ]
    assert not dead, f"private names defined but never read elsewhere in the package: {', '.join(dead)}"
