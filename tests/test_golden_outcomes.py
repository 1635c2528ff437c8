"""Ledgers and verdicts of the benchmark's pool configs are unchanged.

Runs ``jointslab pipeline`` on pool configs 0 and 1 of every benchmark
workload and checks each outcome (exit code, verdict projection of
``pipeline.json``, ledger sha256, rank == C(n+d, d)) against
``bench/golden.json``, by the benchmark's own ``verdicts.problems``.
The bench modules are loaded without writing bytecode under ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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
