"""Every top-level import of a library or test module is used in that
module, and every private top-level name of the library is used.

``ruff`` and ``pyflakes`` are not dependencies, so this reads each module
with ``ast``.  The library's ``__init__.py`` is skipped by the import
check: its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "jointslab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_detector_finds_unused_names():
    source = "import os, sys as system\nfrom a import b, c as d\nfrom __future__ import annotations\nprint(b)\n"
    assert unused_imports(source) == [(1, "os"), (1, "system"), (2, "d")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def _defined(node) -> list:
    """Names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced(node) -> set:
    """Names read anywhere inside a statement: loaded names, attributes
    and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def unreferenced_private_names(sources: dict) -> list:
    """(module, name) for each private top-level name, ``_x`` but not
    ``__x``, that no top-level statement of any of the modules reads,
    other than the one that defines it."""
    statements = [(mod, node) for mod, src in sources.items() for node in ast.parse(src).body]
    return sorted(
        (mod, name)
        for mod, node in statements
        for name in _defined(node)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in _referenced(other) for _, other in statements if other is not node)
    )


def test_dead_code_detector_finds_unread_private_names():
    sources = {
        "a": "def _rec(n):\n    return _rec(n - 1)\n_X: int = 1\n_Y = 2\n"
             "def _used():\n    pass\n",
        "b": "from a import _used\nprint(_Y)\n",
    }
    assert unreferenced_private_names(sources) == [("a", "_X"), ("a", "_rec")]


def test_every_private_library_name_is_referenced():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources) == []
