"""Every top-level import of a library or test module is used in that
module, every private top-level name of the library is used, and every
public top-level function or class of the library, every public method
of a library class and every public field of a library dataclass is read
by something other than the unit tests.  No function of the library
takes a parameter whose name starts with ``_``: a private flag is a
second construction path for one value.
No module of the library, the tests or the benchmark defines a top-level
name twice: the later definition replaces the earlier one, so a test
defined twice runs only in its second form.  No module of the library
binds a top-level dict, list or set that library code mutates: a library
call does not change global state, so a memo belongs to an object the
caller holds.  No library code raises a root value's radicand ``.Q`` to a
power: at the root indices of the paper's multiplicity setting, in the
thousands, that power has millions of digits.

``ruff`` and ``pyflakes`` are not dependencies, so this reads each module
with ``ast``.  The library's ``__init__.py`` is skipped by the import
check: its imports are the public API.
"""

import ast
import tomllib
from collections import Counter
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


BENCH_TRACING = TESTS.parent / "bench" / "tracing.py"
ACCEPTANCE = TESTS / "test_acceptance.py"


def _traced_names() -> set:
    """Every name in a qualified name that ``bench/tracing.py`` wraps.  The
    file is read and run, not imported, as ``test_bench_names`` does."""
    tracing = {}
    exec(compile(BENCH_TRACING.read_text(), str(BENCH_TRACING), "exec"), tracing)
    entries = [*tracing["SPANS"], *tracing["COUNTED"], *tracing["FIELD_COUNTED"]]
    return {part for _, _, qualname in entries for part in qualname.split(".")}


def _entry_points() -> set:
    """The functions ``[project.scripts]`` in pyproject.toml names."""
    scripts = tomllib.loads((TESTS.parent / "pyproject.toml").read_text())["project"]["scripts"]
    return {target.rpartition(":")[2] for target in scripts.values()}


def unread_public_names(library: dict, readers: list, named: set) -> list:
    """(module, name) for each public top-level function or class of the
    ``library`` modules that no other top-level statement of the library
    reads, that no ``readers`` source reads and that ``named`` leaves out."""
    statements = [(mod, node) for mod, src in library.items() for node in ast.parse(src).body]
    read = set(named).union(*(_referenced(ast.parse(src)) for src in readers))
    return sorted(
        (mod, node.name)
        for mod, node in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in read
        and not any(node.name in _referenced(other) for _, other in statements if other is not node)
    )


def test_public_name_detector_finds_test_only_names():
    library = {
        "a": "def used():\n    pass\ndef traced():\n    pass\nclass Alone:\n    x = Alone\n"
             "def checked():\n    pass\ndef main():\n    pass\n",
        "b": "from a import used\n",
    }
    readers = ["from a import checked\n"]
    assert unread_public_names(library, readers, {"traced", "main"}) == [("a", "Alone")]


def test_every_public_library_name_is_read_outside_tests():
    """A public function or class is read by other library code, by an
    acceptance test, by the benchmark's trace or as the CLI entry point.
    The package ``__init__`` re-exports are not readers."""
    library = {p.stem: p.read_text() for p in MODULES if p.parent == PACKAGE}
    named = _traced_names() | _entry_points()
    assert unread_public_names(library, [ACCEPTANCE.read_text()], named) == []


def _attribute_reads(node) -> Counter:
    """How often each attribute name is read inside a node."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store))


def unread_public_methods(library: dict, readers: list, named: set) -> list:
    """(module, class, method) for each public method of a top-level class
    of the ``library`` modules whose name is read as an attribute nowhere
    in the library outside its own definition, nor in any ``readers``
    source, and that ``named`` leaves out."""
    trees = {mod: ast.parse(src) for mod, src in library.items()}
    total = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    read = set(named).union(*(_attribute_reads(ast.parse(src)) for src in readers))
    return sorted(
        (mod, cls.name, fn.name)
        for mod, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("_") and fn.name not in read
        and total[fn.name] == _attribute_reads(fn)[fn.name]
    )


def test_public_method_detector_finds_test_only_methods():
    library = {
        "a": "class A:\n    def used(self):\n        return self.own()\n"
             "    def own(self):\n        return self.own()\n"
             "    def checked(self):\n        pass\n    def traced(self):\n        pass\n"
             "    def _private(self):\n        pass\n    def stored(self):\n        pass\n",
        "b": "from a import A\nA().used()\nA().stored = 1\n",
    }
    readers = ["from a import A\nA().checked()\n"]
    assert unread_public_methods(library, readers, {"traced"}) == [("a", "A", "stored")]


def test_every_public_library_method_is_read_outside_tests():
    """A public method is read by attribute name in other library code, in
    an acceptance test, by the benchmark's trace or as the CLI entry
    point."""
    library = {p.stem: p.read_text() for p in MODULES if p.parent == PACKAGE}
    named = _traced_names() | _entry_points()
    assert unread_public_methods(library, [ACCEPTANCE.read_text()], named) == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """The class is decorated with ``dataclass`` or ``dataclass(...)``."""
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               for d in (getattr(d, "func", d) for d in cls.decorator_list))


def unread_public_fields(library: dict, readers: list, named: set) -> list:
    """(module, class, field) for each public field of a top-level
    dataclass of the ``library`` modules whose name is read as an
    attribute nowhere in the library, nor in any ``readers`` source, and
    that ``named`` leaves out."""
    trees = {mod: ast.parse(src) for mod, src in library.items()}
    read = set(named).union(*(_attribute_reads(tree) for tree in trees.values()),
                            *(_attribute_reads(ast.parse(src)) for src in readers))
    return sorted(
        (mod, cls.name, node.target.id)
        for mod, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and not node.target.id.startswith("_") and node.target.id not in read
    )


def test_public_field_detector_finds_test_only_fields():
    library = {
        "a": "from dataclasses import dataclass\n@dataclass\nclass A:\n    used: int\n"
             "    checked: int\n    traced: int\n    alone: int\n    _private: int\n"
             "    stored: int = 0\n@dataclass(frozen=True)\nclass B:\n    lone: int\n"
             "class C:\n    plain: int\n",
        "b": "from a import A\nprint(A(1, 2, 3, 4, 5).used)\nA(1, 2, 3, 4, 5).stored = 1\n",
    }
    readers = ["from a import A\nprint(A(1, 2, 3, 4, 5).checked)\n"]
    assert unread_public_fields(library, readers, {"traced"}) == [
        ("a", "A", "alone"), ("a", "A", "stored"), ("a", "B", "lone")]


def test_every_public_dataclass_field_is_read_outside_tests():
    """A public dataclass field is read by attribute name in library code,
    in an acceptance test or by the benchmark's trace."""
    library = {p.stem: p.read_text() for p in MODULES if p.parent == PACKAGE}
    named = _traced_names() | _entry_points()
    assert unread_public_fields(library, [ACCEPTANCE.read_text()], named) == []


def underscore_parameters(source: str) -> list:
    """(qualified name, parameter) for each parameter of a ``def`` whose
    name starts with ``_``, the function named through the classes and
    functions that enclose it, in source order."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    a = child.args
                    params = (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                    out.extend((name, arg.arg) for arg in params
                               if arg is not None and arg.arg.startswith("_"))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def test_underscore_parameter_detector_finds_private_flags():
    source = ("class A:\n    def __init__(self, x, _trusted=False, *, _ranked=True):\n"
              "        pass\n    def ok(self, y):\n        pass\n"
              "def f(a, _z=None, *_rest, **_kw):\n    def g(_b, /):\n        pass\n"
              "if True:\n    def h(__c):\n        pass\n")
    assert underscore_parameters(source) == [
        ("A.__init__", "_trusted"), ("A.__init__", "_ranked"), ("f", "_z"), ("f", "_rest"),
        ("f", "_kw"), ("f.g", "_b"), ("h", "__c"),
    ]


def test_no_library_function_takes_an_underscore_parameter():
    found = [(p.stem, *hit) for p in sorted(PACKAGE.glob("*.py"))
             for hit in underscore_parameters(p.read_text())]
    assert found == []


def redefined_names(source: str) -> list:
    """(line, name) for each top-level name that a module defines again,
    at the line of each later definition.  The benchmark's modules are
    read the same way, as text, never imported."""
    seen, out = set(), []
    for node in ast.parse(source).body:
        for name in _defined(node):
            if name in seen:
                out.append((node.lineno, name))
            seen.add(name)
    return out


def test_redefinition_detector_finds_shadowed_names():
    source = ("def test_a():\n    pass\nX = 1\nclass C:\n    def test_a(self):\n        pass\n"
              "def test_a():\n    pass\nX: int = 2\n_y = X\nif X:\n    _y = 3\n")
    assert redefined_names(source) == [(7, "test_a"), (9, "X")]


ALL_MODULES = sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py"),
                      *(TESTS.parent / "bench").glob("*.py")])


@pytest.mark.parametrize("path", ALL_MODULES, ids=[f"{p.parent.name}/{p.stem}" for p in ALL_MODULES])
def test_no_top_level_name_is_defined_twice(path):
    assert redefined_names(path.read_text()) == []


CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
READERS = {"get", "keys", "values", "items", "copy", "count", "index"}


def _builds_container(value) -> bool:
    """The expression builds a mutable dict, list or set."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in CONTAINERS)


def _reads_only(node, parent) -> bool:
    """The use ``node`` of a container, inside ``parent``, only reads it:
    an item read, a reading method, a membership test or an iteration."""
    if isinstance(parent, ast.Subscript):
        return isinstance(parent.ctx, ast.Load) or parent.slice is node
    if isinstance(parent, ast.Attribute):
        return parent.attr in READERS
    if isinstance(parent, ast.Compare):
        return node in parent.comparators and all(isinstance(op, (ast.In, ast.NotIn))
                                                  for op in parent.ops)
    return isinstance(parent, (ast.comprehension, ast.For)) and parent.iter is node


def mutated_module_containers(sources: dict) -> list:
    """(module, name) for each top-level name a module binds to a dict,
    list or set that some statement does more with than read: a use other
    than an item read, a reading method, a membership test or an
    iteration (a store, a mutating method, an alias that escapes), or a
    ``global`` declaration.  The module's own bare names are read, and the
    name as an attribute in any of the modules; names are matched, not
    scopes."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    bound = {
        (mod, name)
        for mod, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
        and _builds_container(node.value)
        for name in _defined(node)
    }
    found = set()
    for mod, tree in trees.items():
        for parent in ast.walk(tree):
            if isinstance(parent, ast.Global):
                found.update((mod, name) for name in parent.names if (mod, name) in bound)
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    uses = {(mod, node.id)} & bound
                elif isinstance(node, ast.Attribute):
                    uses = {(m, name) for m, name in bound if name == node.attr}
                else:
                    continue
                if uses and not _reads_only(node, parent):
                    found |= uses
    return sorted(found)


def test_module_state_detector_finds_mutated_containers():
    sources = {
        "a": "_JSON_TYPES = {int: 'an integer'}\n_PACKS = {}\n_SEEN = set()\n"
             "_LOG: list = []\n_CACHE = dict()\n_TOTALS = [0]\n_KINDS = ('flat',)\n"
             "_ALIASED = {}\n_ORDER = [1, 2]\n"
             "def name(x):\n    return _JSON_TYPES[type(x)], list(_KINDS), x in _JSON_TYPES\n"
             "class R:\n    def __init__(self):\n        self.packs = _ALIASED\n"
             "    def insert(self, row):\n        _PACKS[id(row)] = row\n"
             "        return [a for a in _ORDER], _JSON_TYPES.get(row)\n"
             "def f(x):\n    _SEEN.add(x)\n    _LOG.extend([x])\n    _TOTALS[0] += x\n",
        "b": "import a\ndef g():\n    del a._CACHE['k']\n",
    }
    assert mutated_module_containers(sources) == [
        ("a", "_ALIASED"), ("a", "_CACHE"), ("a", "_LOG"), ("a", "_PACKS"), ("a", "_SEEN"),
        ("a", "_TOTALS")]


def test_no_library_module_keeps_mutable_state():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert mutated_module_containers(sources) == []


def radicand_powers(source: str) -> list:
    """Line of each ``<expr>.Q ** ...`` or ``pow(<expr>.Q, ...)``, a root
    value's radicand raised to a power.  An integer such as
    ``Q.numerator`` may be raised."""
    def radicand(node):
        return isinstance(node, ast.Attribute) and node.attr == "Q"

    return sorted(
        n.lineno for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow) and radicand(n.left)
        or isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "pow"
        and n.args and radicand(n.args[0])
    )


def test_radicand_power_detector_finds_raised_radicands():
    source = ("def cmp(a, b):\n    return a.Q ** b.M > b.Q ** (a.M // 2)\n"
              "def ok(x, n):\n    return x.Q.numerator ** 2, x.M ** 2, n ** x.Q, x.Q * x.Q\n"
              "def f(x):\n    return pow(x.Q, 3), pow(x.M, 2)\n")
    assert radicand_powers(source) == [2, 2, 6]


def test_no_library_code_raises_a_radicand_to_a_power():
    found = [(p.stem, line) for p in sorted(PACKAGE.glob("*.py"))
             for line in radicand_powers(p.read_text())]
    assert found == []
