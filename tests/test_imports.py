"""No module of the package or of the tests imports a name it never uses.

A stdlib ast check, as the toolchain has no linter.  An imported name is
used when the module reads it anywhere, names it in an annotation (string
annotations included) or lists it in __all__; star imports and from
__future__ imports bind no name to check.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = [*sorted((ROOT / "src" / "knotsurgery").glob("*.py")), *sorted(ROOT.glob("tests/*.py"))]


def _bound(tree: ast.Module):
    # (name, line) for each name an import binds
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used(tree: ast.Module) -> set:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and "__all__" in map(ast.unparse, node.targets):
            used.update(e.value for e in getattr(node.value, "elts", ()) if isinstance(e, ast.Constant))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _used(tree)
    return [f"{name} (line {line})" for name, line in _bound(tree) if name not in used]


def test_the_check_counts_annotations_all_star_and_future_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from a import *\n"
        "from b import Listed, Annotated, Quoted, Unused\n"
        "__all__ = ['Listed']\n"
        "def f(x: Annotated) -> 'list[Quoted]':\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["regex (line 3)", "Unused (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
