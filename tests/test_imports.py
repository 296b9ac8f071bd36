"""Every module of the package uses every name it imports, and every
private helper it defines.

No linter ships with the toolchain, so this walks the syntax tree: a name
bound by an import must appear as a name somewhere else in the module, or
inside a string annotation.  ``__init__.py`` re-exports and is skipped.  A
private name (``_foo``) bound at module level or in a class body must be
read somewhere in the package beyond its own definition, so a dead helper,
or a dead private method, fails here.  Likewise a public name that
``__init__.py`` exports must be read by the package beyond its own
definition, or be named by the benchmark (``perfbench/``) or the scripts
(``scripts/``), so a dead entry point fails here too, and a public method
or property must be read as an attribute there, so a dead method fails.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
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
REPO = Path(__file__).resolve().parents[1]


def _definitions(body: list[ast.stmt]):
    """The statements of a module body and, recursively, of its class bodies."""
    for node in body:
        yield node
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node.body)


def _bound_names(node: ast.stmt) -> list[str]:
    """Names a statement binds by a def, a class or an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return []


def _private_names(node: ast.stmt) -> list[str]:
    """Private names a statement binds by a def, a class or an assignment."""
    return [name for name in _bound_names(node) if name.startswith("_") and not name.startswith("__")]


def _references(node: ast.AST) -> Counter:
    """How often a subtree reads each name: loaded names, attributes and
    imported names."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def test_no_unreferenced_private_names():
    trees = [(path, ast.parse(path.read_text(), filename=str(path))) for path in PACKAGE]
    total = sum((_references(tree) for _, tree in trees), Counter())
    dead = [
        f"{path.name}:{node.lineno} {name}"
        for path, tree in trees
        for node in _definitions(tree.body)
        for name in _private_names(node)
        # a read inside the defining statement (recursion) does not count
        if total[name] == _references(node)[name]
    ]
    assert not dead, f"private names defined but never read elsewhere in the package: {', '.join(dead)}"


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring constants of a module, its classes and functions."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def test_no_dead_public_methods():
    """Every public method or property of a class in the package is read as
    an attribute somewhere in the package, the benchmark (``perfbench/``)
    or the scripts (``scripts/``), or is named there as ``Class.method`` in
    a string other than a docstring, as a traced span is.

    The scan matches attribute names, not the classes they are read on, so
    a name another class shares lets a method through: a ``scale`` method
    of `Measure` would pass on ``refclock.scale`` in the benchmark, and a
    ``join`` of `RadicalElement` on ``Element.join``."""
    sources = [*PACKAGE, *(path for folder in ("perfbench", "scripts") for path in (REPO / folder).glob("*.py"))]
    read, strings = set(), []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
                strings.append(node.value)
    named = "\n".join(strings)
    dead = [
        f"{path.name}:{item.lineno} {cls.name}.{item.name}"
        for path in PACKAGE
        for cls in _definitions(ast.parse(path.read_text(), filename=str(path)).body)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
        and item.name not in read
        and not re.search(rf"\b{cls.name}\.{item.name}\b", named)
    ]
    assert not dead, f"public methods nothing in the package, perfbench or scripts reads: {', '.join(dead)}"


def test_no_dead_public_entry_points():
    init = Path(riesz_lab.__file__)
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE if path != init]
    total = sum((_references(tree) for tree in trees), Counter())
    own = Counter()  # reads inside each name's own top-level definition
    for tree in trees:
        for node in tree.body:
            for name in _bound_names(node):
                own[name] += _references(node)[name]
    outside = " ".join(path.read_text() for folder in ("perfbench", "scripts") for path in (REPO / folder).glob("*.py"))
    dead = sorted(
        name
        for name in exported
        if total[name] == own[name] and not re.search(rf"\b{name}\b", outside)
    )
    assert not dead, f"exported names nothing in the package, perfbench or scripts reads: {', '.join(dead)}"


# the modules that evaluate identities; sampling, suites and report may use
# floats for coin flips and wall time
EVALUATORS = ("_intpath", "checks", "lattice", "tensors", "measures", "polynomials", "convergence", "order_continuity")


@pytest.mark.parametrize("name", EVALUATORS)
def test_evaluators_hold_no_float_arithmetic(name):
    """Exact evaluation stays in integers and Fractions: no float constant
    and no float rounding (``np.rint``) in an evaluator module."""
    path = Path(riesz_lab.__file__).parent / f"{name}.py"
    floats = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        or (isinstance(node, ast.Attribute) and node.attr == "rint")
    ]
    assert not floats, f"float arithmetic in an exact evaluator: {', '.join(floats)}"
