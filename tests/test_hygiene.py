"""Source hygiene of the package, read with the stdlib `ast` module, and the
shape of the formula node classes.

Every name a `src/pmodel` module imports must be used in that module or be
listed in its `__all__`; an import kept only for re-export without being
declared is dead weight that a rewrite can leave behind unnoticed. For the
same reason, every module-level `_private` function or class must be
referenced somewhere in the package outside its own definition, and every
public one must be referenced so or be exported in `pmodel.__all__`.
Every formula node type must be a slotted value on the shared node base.
"""
from __future__ import annotations

import ast
import typing
from collections import Counter
from pathlib import Path

import pytest

from pmodel import formal

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pmodel"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | _exported(tree)
    return [f"{path.name}:{line}: {name}" for name, line in _imported(tree).items() if name not in kept]


def _references(tree: ast.AST) -> Counter[str]:
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _unreferenced_definitions(paths, wanted) -> list[str]:
    """Module-level functions and classes for which wanted(name) holds that
    nothing in the package references outside their own definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in paths}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            # references inside the definition itself (recursion) do not count
            if wanted(name) and everywhere[name] - _references(node)[name] == 0:
                dead.append(f"{path.name}:{node.lineno}: {name}")
    return dead


def unreferenced_private_definitions(paths) -> list[str]:
    return _unreferenced_definitions(paths, lambda name: name.startswith("_") and not name.startswith("__"))


def unexported_public_definitions(paths) -> list[str]:
    exported = _exported(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")))
    return _unreferenced_definitions(
        paths, lambda name: not name.startswith("_") and name not in exported
    )


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "formal.py", "frep.py", "pipeline.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_no_unreferenced_private_definitions():
    assert unreferenced_private_definitions(MODULES) == []


def test_public_definitions_are_referenced_or_exported():
    assert unexported_public_definitions(MODULES) == []


def test_formula_nodes_are_slotted_values():
    """A node type without slots would carry a __dict__, and one without the
    shared node base would compare and hash by walking its formula as a tree,
    which is exponential on the shared DAGs to_sheffer returns."""
    sample = formal.parse_formula(
        "wh x. (x in H , forall y. exists z. (!p & ((q v r) -> ((J S y |/ z in H) !v prob(e) = 1/2))))"
    )
    nodes = {type(g): g for g, _ in formal.preorder(sample)}
    assert set(nodes) == set(typing.get_args(formal.Formula))
    for cls, g in nodes.items():
        assert "__slots__" in vars(cls) and not hasattr(g, "__dict__"), cls.__name__
        assert (cls.__eq__, cls.__hash__) == (formal._Node.__eq__, formal._Node.__hash__)
        assert formal.rebuild(g, formal.children(g)) == g
