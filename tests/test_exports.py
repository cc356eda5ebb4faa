"""The package's module-level names: every name in ``__all__`` exists, and every private one is used.

A deletion cannot leave a stale export, and a helper whose last caller
goes cannot stay behind in the package.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spherehead

MODULES = sorted(info.name for info in pkgutil.iter_modules(spherehead.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"spherehead.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"spherehead.{name}.__all__ lists a name twice"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_library_modules_declare_exports():
    declared = {n for n in MODULES if hasattr(importlib.import_module(f"spherehead.{n}"), "__all__")}
    assert {"cli", "data", "heads", "ndcore", "results", "stereo", "train"} <= declared


def _private_definitions(tree: ast.Module):
    """(name, statement) for each ``_name`` a module's top level defines, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _uses(tree: ast.Module):
    """(name, line) for each read of a name or attribute, and each name imported under an alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names if alias.asname)


def test_every_private_name_is_used_by_the_package():
    """Each private module-level name is read by package code outside its own definition.

    Tests and benchmarks do not count: a helper only they call belongs in
    ``tests/oracles.py``, not in the package.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(spherehead.__file__).parent.glob("*.py"))}
    uses = {module: list(_uses(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            if not any(used == name and (other != module or not node.lineno <= line <= node.end_lineno)
                       for other, found in uses.items() for used, line in found):
                unused.append(f"spherehead.{module}.{name} (line {node.lineno})")
    assert unused == []
