"""Per-layer tracing from outside the program.

The traced run wraps public functions of each jointslab module for the
length of one op and restores the originals afterwards; nothing inside
``src/`` knows about it.  A wrapped name is replaced wherever it is
looked up: in every jointslab module namespace that holds it (``cli``
imports ``balance``, ``basis`` imports ``derivative_space``, ...) and on
its class for methods.  A name that no longer exists is recorded as
absent and its metrics are left out.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (span name, module, qualified name).  A span's self time is its duration
# minus the spans that ran inside it.  Loading a config is where joints
# are detected, so the load is the detection span.
SPANS = (
    ("config.detect", "jointslab.config", "JointsConfiguration.from_json"),
    ("config.components", "jointslab.config", "connected_components"),
    ("config.joints_on", "jointslab.config", "JointsConfiguration.joints_on"),
    ("varieties.make_chart", "jointslab.varieties", "make_chart"),
    ("varieties.derivative_space", "jointslab.varieties", "derivative_space"),
    ("basis.build_ledger", "jointslab.basis", "build_ledger"),
    ("basis.functional_rows", "jointslab.basis", "functional_rows"),
    ("balance.balance", "jointslab.balance", "balance"),
    ("balance.compute_W", "jointslab.balance", "compute_W"),
    ("verify.rank", "jointslab.verify", "vanishing_rank_check"),
    ("verify.count", "jointslab.verify", "parameter_count_check"),
    ("verify.bound", "jointslab.verify", "bound_report"),
    ("poly.compose", "jointslab.poly", "HasseOperator.compose"),
    ("poly.monomial_functional", "jointslab.poly", "HasseOperator.monomial_functional"),
    ("poly.conjugate_operator", "jointslab.poly", "conjugate_operator"),
    ("poly.substitute", "jointslab.poly", "Polynomial.substitute"),
    ("linalg.insert", "jointslab.linalg", "IncrementalRowReducer.insert"),
    ("linalg.rank", "jointslab.linalg", "rank"),
)
ROOT_SPAN = "cli.self"

# Counted without a span: too fine-grained to time without distorting
# the self time of the step that calls them.
COUNTED = (("config.contains_point", "jointslab.varieties", "contains_point"),)

# Field arithmetic, counted in an op of its own so that the counting
# cost does not land in any span's self time.
FIELD_COUNTED = tuple(
    ("field.arith", "jointslab.field", f"FieldSpec.{op}")
    for op in ("add", "sub", "mul", "neg", "inv", "div", "pow")
) + (("field.of", "jointslab.field", "FieldSpec.of"),)


def _tally_ledger(tally, led):
    tally["basis.rows_kept"] += getattr(led, "rank", 0)


def _tally_balance(tally, state):
    tally["balance.moves"] += sum(1 for row in getattr(state, "log", ()) if row.get("changed"))


def _tally_rank(tally, res):
    tally["verify.rank_rows"] += res.get("rows", 0)
    tally["verify.rank_rank"] += res.get("rank", 0)


def _tally_rows(tally, rows):
    tally["basis.rows_tried"] += len(rows)


def _tally_insert(tally, raised):
    tally["linalg.insert_raised"] += bool(raised)


# Counters read from a span's return value.
TALLIES = {
    "basis.build_ledger": _tally_ledger,
    "balance.balance": _tally_balance,
    "verify.rank": _tally_rank,
    "basis.functional_rows": _tally_rows,
    "linalg.insert": _tally_insert,
}


def _lookup(modname, qualname):
    """(owner, attribute, raw value) for a dotted name, or None if gone.
    Modules come from ``sys.modules``, because the package attribute
    ``jointslab.balance`` is the re-exported function, not the module."""
    try:
        owner = sys.modules.get(modname) or importlib.import_module(modname)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    except (ImportError, AttributeError, KeyError):
        return None
    return owner, attr, raw


class Patches:
    """Replaces functions where they are looked up and puts them back."""

    def __init__(self):
        self._saved = []
        self.absent = []

    def wrap(self, name, modname, qualname, make_wrapper):
        found = _lookup(modname, qualname)
        if found is None:
            self.absent.append(f"{modname}.{qualname}")
            return
        owner, attr, raw = found
        if isinstance(owner, type):
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            new = make_wrapper(name, fn)
            self._set(owner, attr, kind(new) if kind else new)
            return
        new = make_wrapper(name, raw)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "jointslab":
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._set(mod, key, new)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


class Tracer:
    """Span self times, span call counts and tallies for traced ops."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.tally = Counter()
        self._stack = []  # per open span: time spent in its child spans

    def _span(self, name, fn):
        stack, self_s, calls, tally = self._stack, self.self_s, self.calls, self.tally
        on_result = TALLIES.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self_s[name] += dur - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dur
            if on_result is not None:
                on_result(tally, result)
            return result

        return traced

    def _count(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def spans(self):
        """Trace one op: spans on SPANS, counts on COUNTED."""
        patches = Patches()
        try:
            for name, mod, qual in SPANS:
                patches.wrap(name, mod, qual, self._span)
            for name, mod, qual in COUNTED:
                patches.wrap(name, mod, qual, self._count)
            yield patches.absent
        finally:
            patches.restore()

    @contextmanager
    def field_counts(self):
        """Count field calls only (its own op)."""
        patches = Patches()
        try:
            for name, mod, qual in FIELD_COUNTED:
                patches.wrap(name, mod, qual, self._count)
            yield patches.absent
        finally:
            patches.restore()

    def root(self, fn):
        """Wrap the op itself; its self time is the cli layer's."""
        return self._span(ROOT_SPAN, fn)
