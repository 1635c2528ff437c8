"""The benchmark's ``bench/verdicts.py``, loaded from its file without
writing bytecode under ``bench/``, for the tests that run pipeline ops
the way the benchmark does."""

import importlib.util
import sys
from pathlib import Path

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
