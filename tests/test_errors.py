"""Every exception class in ``errors.py`` is raised or caught by some
library module, so an error class outlives no guard.

Read with ``ast``: a class counts when its name appears as the exception
of a ``raise`` or in the type of an ``except`` clause outside
``errors.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jointslab"


def error_classes() -> list:
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)]


def raised_or_caught(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            names.update(n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            names.update(n.id for n in ast.walk(node.type) if isinstance(n, ast.Name))
    return names


def test_detector_reads_raise_and_except():
    source = ("try:\n    raise A('x')\nexcept (B, C) as exc:\n    raise D from exc\n"
              "except E:\n    pass\nF()\n")
    assert raised_or_caught(source) == {"A", "B", "C", "D", "E"}


def test_every_error_class_is_raised_or_caught():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "errors.py":
            used |= raised_or_caught(path.read_text())
    assert [name for name in error_classes() if name not in used] == []
