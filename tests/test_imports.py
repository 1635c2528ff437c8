"""Every top-level import of a library or test module is used in that module.

``ruff`` and ``pyflakes`` are not dependencies, so this reads each module
with ``ast``.  The library's ``__init__.py`` is skipped: its imports are
the public API.
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
