"""Prints one summary line per acceptance criterion after the run, and
holds the fixtures that several test modules share."""

import re
from contextlib import contextmanager

import pytest

from jointslab import verify
from jointslab.linalg import IncrementalRowReducer

ACCEPTANCE_PATTERN = re.compile(r"test_acceptance_(\d+)")
_results = {}


@contextmanager
def _recorded_inserts():
    inserted = []

    class Recording(IncrementalRowReducer):
        def insert(self, row):
            inserted.append(list(row))
            return super().insert(row)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "IncrementalRowReducer", Recording)
        yield inserted


@pytest.fixture(scope="session")
def recorded_inserts():
    """A context manager that yields the list of rows the rank check's
    reducers receive while it is open, in insertion order.  Session-scoped,
    so hypothesis tests can take it."""
    return _recorded_inserts


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = ACCEPTANCE_PATTERN.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    _results[num] = report.outcome == "passed" and _results.get(num, True)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        verdict = "PASS" if _results[num] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num}: {verdict}")
