"""Every function the benchmark's traced run wraps exists in the library.

A traced name that no longer resolves is reported as absent by
``bench/tracing.py`` and its per-layer metrics silently disappear, so a
rename or deletion is caught here instead.  The file is read, not
imported, so that nothing is written under ``bench/``.
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve_to_functions():
    tracing = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    entries = [*tracing.SPANS, *tracing.COUNTED, *tracing.FIELD_COUNTED]
    assert entries
    missing = []
    for name, module, qualname in entries:
        found = tracing._lookup(module, qualname)
        raw = found and found[2]
        if not callable(getattr(raw, "__func__", raw)):
            missing.append(f"{name}: {module}.{qualname}")
    assert not missing, missing
