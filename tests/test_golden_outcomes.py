"""Ledgers and verdicts of the benchmark's pool configs are unchanged.

Runs ``jointslab pipeline`` on pool configs 0 and 1 of every benchmark
workload and checks each outcome (exit code, verdict projection of
``pipeline.json``, ledger sha256, rank == C(n+d, d)) against
``bench/golden.json``, by the benchmark's own ``verdicts.problems``.
The bench modules are loaded without writing bytecode under ``bench/``.
On pool config 0 it also counts the matrix inverses a pipeline op takes.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from jointslab import basis, config, linalg, varieties
from jointslab.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_verdicts():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    had_workloads = "workloads" in sys.modules
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_verdicts", BENCH / "verdicts.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        if not had_workloads:
            sys.modules.pop("workloads", None)
    return module


verdicts = load_verdicts()
GOLDEN = verdicts.load_golden()
CASES = [(name, index) for name in verdicts.WORKLOADS for index in (0, 1)]


@pytest.mark.parametrize("name,index", CASES, ids=[f"{n}-{i}" for n, i in CASES])
def test_pool_config_matches_golden(tmp_path, name, index):
    workload = verdicts.WORKLOADS[name]
    text = verdicts.config_text(workload.config(index))
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "out"
    rc = verdicts.pipeline(main, config, out, workload.args)
    got = verdicts.outcome(rc, out)
    expected = GOLDEN[name].get(str(index))
    assert verdicts.problems(workload, expected, verdicts.sha256(text), got) == []


def _counting(calls, key, fn):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls[key(*args)] += 1
        return result
    return wrapper


@pytest.mark.parametrize("name", list(verdicts.WORKLOADS))
def test_pipeline_inverts_only_graph_frames(tmp_path, monkeypatch, name):
    # a chart reads its parametrization off its basis columns; only a graph
    # chart takes an inverse, of its variety's frame, once per chart
    calls = Counter()
    monkeypatch.setattr(linalg, "inverse", _counting(calls, lambda *a: "inverse", linalg.inverse))
    chart = _counting(calls, lambda V, *a: f"{V.kind} chart", varieties.make_chart)
    for module in (varieties, config, basis):
        monkeypatch.setattr(module, "make_chart", chart)
    workload = verdicts.WORKLOADS[name]
    path = tmp_path / "config.json"
    path.write_text(verdicts.config_text(workload.config(0)))
    verdicts.pipeline(main, path, tmp_path / "out", workload.args)
    assert sum(n for key, n in calls.items() if key.endswith("chart")) > 0
    assert calls["inverse"] == calls["graph chart"]
    assert (calls["graph chart"] > 0) == (name == "curved-q")
