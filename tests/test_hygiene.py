"""Source hygiene: every name a library module imports is used in that
module, every module-level function and class and every non-dunder method of
such a class is referenced somewhere, and every function reads each of its
parameters.

``__init__.py`` is left out, since its imports are the package's re-exports.
An imported name counts as used when it is read anywhere in the module, named
in a string annotation, or listed in ``__all__``.  A definition counts as
referenced when a file of ``src/``, ``tests/`` or ``benchmark/`` reads its
name, as a name or an attribute, or spells it as a whole string (as the
benchmark's tracer names functions); imports, ``__all__`` lists and the
definition itself do not count.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gptlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SEARCHED = [*MODULES, *(ROOT / "tests").glob("*.py"), *(ROOT / "benchmark").glob("*.py")]


def _imported(tree: ast.Module) -> dict:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _used(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


@functools.cache
def _referenced() -> set:
    names = set()
    for path in SEARCHED:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported = {id(e) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    for e in ast.walk(node.value)}
        for node in ast.walk(tree):
            if id(node) in exported:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the non-dunder methods of those
    classes (named ``Class.method``), as (name, node) pairs."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, functions) and not (
                        member.name.startswith("__") and member.name.endswith("__")):
                    yield f"{node.name}.{member.name}", member


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_referenced(path):
    referenced = _referenced()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unreferenced = {name: node.lineno for name, node in _definitions(tree)
                    if node.name not in referenced}
    assert not unreferenced, f"{path.name}: definitions nothing references (name: line) {unreferenced}"


def _unread_parameters(tree: ast.Module) -> dict:
    """(function, parameter) -> line for each parameter its body never reads.

    ``self``, ``cls`` and ``_``-prefixed names are left out; a parameter that
    a nested function reads counts as read.
    """
    unread = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *(a for a in (args.vararg, args.kwarg) if a is not None)]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for arg in params:
            if arg.arg not in read and arg.arg not in ("self", "cls") and not arg.arg.startswith("_"):
                unread[(node.name, arg.arg)] = node.lineno
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = _unread_parameters(tree)
    assert not unread, f"{path.name}: parameters never read ((function, parameter): line) {unread}"


def _unread_locals(tree: ast.Module) -> dict:
    """(function, name) -> line for each name a function binds but never reads.

    ``_``-prefixed names and names declared ``global`` or ``nonlocal`` are left
    out; an augmented assignment reads its target, and a name that a nested
    function or comprehension reads counts as read.
    """
    unread = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner = [n for stmt in node.body for n in ast.walk(stmt)]
        read = {n.id for n in inner if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.target.id for n in inner
                 if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
        read |= {name for n in inner if isinstance(n, (ast.Global, ast.Nonlocal))
                 for name in n.names}
        for n in inner:
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) \
                    and n.id not in read and not n.id.startswith("_"):
                unread.setdefault((node.name, n.id), n.lineno)
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_local_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = _unread_locals(tree)
    assert not unread, f"{path.name}: locals never read ((function, name): line) {unread}"
