"""Running one `jointslab pipeline` op and checking what it wrote.

An op's outcome is its exit code, a verdict projection of
``pipeline.json`` and the sha256 of each ``ledger-*.csv``.  The golden
outcomes in ``golden.json`` were recorded per (workload, pool index);
an op fails if it raises, if its exit code differs, or if any recorded
value differs.  Fields of ``pipeline.json`` outside the projection are
ignored, so later additions to the report do not count as changes.

Re-record the goldens (only when the expected verdicts really change):

    python3 bench/verdicts.py --record [--workload NAME]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"

sys.path.insert(0, str(BENCH))
from workloads import POOL_SIZE, WORKLOADS  # noqa: E402


def have_source() -> bool:
    return (SRC / "jointslab" / "__init__.py").is_file()


def import_cli():
    """``jointslab.cli.main`` from this checkout's sources, never from an
    installed copy."""
    sys.path.insert(0, str(SRC))
    from jointslab import cli

    if Path(cli.__file__).resolve().parent != (SRC / "jointslab").resolve():
        raise ImportError(f"jointslab imported from {cli.__file__}, not from {SRC}")
    return cli.main


def config_text(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True)


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def pipeline(main, config_path: Path, out_dir: Path, args) -> int:
    """One op: the CLI call as a user makes it, its summary line swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["pipeline", "--config", str(config_path), "--out-dir", str(out_dir), *args])


def project(component: dict) -> dict:
    rank, count, bound = component["rank"], component["count"], component["bound"]
    return {
        "balance_status": component["balance_status"],
        "alpha": component["alpha"],
        "rank": {k: rank[k] for k in ("rank", "expected", "pass")},
        "count": {k: count[k] for k in ("lhs", "rhs", "pass")},
        "bound": {k: bound[k] for k in ("pass_a", "pass_b")},
        "pass": component["pass"],
    }


def outcome(rc, out_dir: Path) -> dict:
    report = out_dir / "pipeline.json"
    components = None
    if report.is_file():
        components = [project(c) for c in json.loads(report.read_text())["components"]]
    ledgers = {p.name: sha256(p.read_bytes()) for p in sorted(out_dir.glob("ledger-*.csv"))}
    return {"exit": rc, "components": components, "ledgers": ledgers}


def problems(workload, expected: dict | None, config_sha: str, got: dict) -> list:
    """Why an op's outcome is wrong; empty when it is right."""
    if expected is None:
        return ["no golden outcome for this config"]
    if expected["config_sha256"] != config_sha:
        return ["config differs from the one the golden outcome was recorded on"]
    out = [
        f"{key}: expected {expected[key]!r}, got {got[key]!r}"
        for key in ("exit", "components", "ledgers")
        if got[key] != expected[key]
    ]
    for i, comp in enumerate(got["components"] or ()):
        rank = comp["rank"]
        if comp["pass"] and not rank["rank"] == rank["expected"] == workload.expected_rank:
            out.append(f"component {i}: rank {rank['rank']}, expected {rank['expected']}, "
                       f"C(n+d, d) = {workload.expected_rank}")
    return out


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def record(main, workload, indices, work: Path) -> dict:
    """Golden outcomes of the given pool configs, keyed by index."""
    entries = {}
    for index in indices:
        text = config_text(workload.config(index))
        path = work / "config.json"
        path.write_text(text)
        out = work / "out"
        rc = pipeline(main, path, out, workload.args)
        entries[str(index)] = {"config_sha256": sha256(text), **outcome(rc, out)}
        shutil.rmtree(out)
        print(f"{workload.name} {index}: exit {rc}", file=sys.stderr, flush=True)
    return entries


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--record", action="store_true", required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = ap.parse_args(argv)
    if not have_source():
        print(f"error: no jointslab sources under {SRC}", file=sys.stderr)
        return 2
    golden = load_golden() if GOLDEN.is_file() else {}
    cli_main = import_cli()
    work = ROOT / ".bench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workload or list(WORKLOADS):
            golden[name] = record(cli_main, WORKLOADS[name], range(POOL_SIZE), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
