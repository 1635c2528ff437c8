#!/usr/bin/env python3
"""Benchmark of `jointslab pipeline` on seeded configs.

One op is one in-process ``jointslab.cli.main(["pipeline", ...])`` call
on a config file no earlier op of the process has seen.  Ops run one at
a time from a single process (a closed loop with one client), and every
op's exit code, verdicts and ledgers are checked against golden.json.

    python3 bench/run.py --workload rank-heavy --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
from a traced run.  Human-readable lines come first; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}.
``--workload all`` runs both for every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import verdicts  # noqa: E402
from tracing import COUNTED, FIELD_COUNTED, ROOT_SPAN, SPANS, Tracer  # noqa: E402
from workloads import POOL_SIZE, PRIME, WORKLOADS  # noqa: E402

ROOT = verdicts.ROOT
SETUP_REPEATS = 5
# setup_s is given in seconds of a machine on which reference_loop() takes
# this long (2-core x86 VM, Python 3.11.7, when quiet); see end_to_end().
REF_NOMINAL_S = 0.25
LAYERS = ("cli", "config", "balance", "basis", "verify", "varieties", "poly", "linalg")

# A fresh interpreter that is ready for its first timed op: jointslab
# imported and one warm-up op done.  Its exit code is the op's.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
import verdicts
main = verdicts.import_cli()
sys.exit(verdicts.pipeline(main, sys.argv[3], sys.argv[4], sys.argv[5:]))
"""


def reference_loop() -> float:
    """Wall time of fixed pure-Python work in the style of the library's
    (modular integer arithmetic, tuples and dicts, small Fractions), about
    0.3 s.  Op time divided by it cancels most of a shared machine's
    drifting speed."""
    t0 = time.perf_counter()
    acc, table = 1, {}
    for i in range(200000):
        acc = (acc * 48271 + i) % PRIME
        key = (i & 255, acc & 7)
        table[key] = (table.get(key, 0) + acc) % PRIME
    q = Fraction(0)
    for i in range(1, 10000):
        q = Fraction(i % 97, 1 + i % 89) * Fraction(3, 7) - q / 2
    return time.perf_counter() - t0


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg()[0],
    }


class Session:
    """One workload process: its configs, its output directory, its ops."""

    def __init__(self, workload, seed: int, work: Path, golden: dict):
        self.w = workload
        self.work = work
        self.golden = golden.get(workload.name, {})
        self.order = random.Random(seed).sample(range(POOL_SIZE), POOL_SIZE)
        self.attempted = 0
        self.failures = []
        self.main = None
        self.last_ref = None  # reference time taken right before the next op
        spare = workload.spare(seed)
        self.spare_path = work / "spare.json"
        self.spare_path.write_text(verdicts.config_text(spare))

    def setup_probe(self) -> float:
        out = self.work / "probe"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(verdicts.SRC), str(BENCH), str(self.spare_path),
             str(out), *self.w.spare_args],
            stdout=subprocess.DEVNULL, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != self.w.exit_code:
            raise RuntimeError(f"set-up probe exited {proc.returncode}, expected {self.w.exit_code}")
        return elapsed

    def warm_up(self):
        self.main = verdicts.import_cli()
        out = self.work / "warm-up"
        rc = verdicts.pipeline(self.main, self.spare_path, out, self.w.spare_args)
        shutil.rmtree(out, ignore_errors=True)
        if rc != self.w.exit_code:
            raise RuntimeError(f"warm-up op exited {rc}, expected {self.w.exit_code}")
        self.last_ref = reference_loop()

    def op(self, wrap=None):
        """Run the next pool config; returns (op seconds, reference
        seconds), or None when the pool is used up.  The machine's speed
        drifts within seconds, so the reference is the mean of the loops
        timed right before and right after the op: on descent-heavy this
        cut the spread of run medians from 0.09 to 0.04 of the median,
        against the loop after the op alone."""
        if not self.order:
            return None
        index = self.order.pop(0)
        text = verdicts.config_text(self.w.config(index))
        path = self.work / f"config-{index}.json"
        path.write_text(text)
        out = self.work / f"out-{index}"
        call = self.main if wrap is None else wrap(self.main)
        self.attempted += 1
        gc.collect()  # every op starts from a collected heap
        t0 = time.perf_counter()
        try:
            rc = verdicts.pipeline(call, path, out, self.w.args)
        except Exception as exc:  # a raising op is a failed op, not a crash
            rc = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        after = reference_loop()
        ref, self.last_ref = (self.last_ref + after) / 2, after
        got = verdicts.outcome(rc, out)
        why = verdicts.problems(self.w, self.golden.get(str(index)), verdicts.sha256(text), got)
        if why:
            self.failures.append((index, why))
        shutil.rmtree(out, ignore_errors=True)
        path.unlink()
        return elapsed, ref


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(session: Session, seconds: float) -> tuple:
    """Set-up probes, warm-up, then untraced ops until ``seconds`` have
    passed.  Returns (metrics, notes).

    Raw set-up seconds moved by 40% between runs minutes apart as the
    shared machine changed speed, so each probe is scaled like an op, by
    the reference loops right before and after it, and reported at the
    nominal reference speed REF_NOMINAL_S."""
    setups, scaled = [], []
    before = reference_loop()
    for _ in range(SETUP_REPEATS):
        setups.append(session.setup_probe())
        after = reference_loop()
        scaled.append(setups[-1] / ((before + after) / 2) * REF_NOMINAL_S)
        before = after
    session.warm_up()
    times, ratios = [], []
    t_end = time.perf_counter() + seconds
    while not times or time.perf_counter() < t_end:
        got = session.op()
        if got is None:
            break
        times.append(got[0])
        ratios.append(got[0] / got[1])
    metrics = {
        "pipeline_p50_ref": _metric(statistics.median(ratios), "ref"),
        "setup_s": _metric(statistics.median(scaled), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # raw seconds swing by a quarter between runs here, so they are shown
    # but not gated
    notes = [f"pipeline_p50_s {statistics.median(times):.6g} s (raw; not gated)",
             f"setup_raw_s {statistics.median(setups):.6g} s (raw; not gated)"]
    return metrics, notes


def per_layer(session: Session, seconds: float) -> tuple:
    """Field-counting op first, then untraced and traced ops in turn.
    Counts come from the first traced op (fixed by the seed), times are
    medians over all traced ops.  Returns (metrics, notes)."""
    session.warm_up()
    t_end = time.perf_counter() + seconds
    field = Tracer()
    with field.field_counts() as absent_field:
        session.op()
    plain, traced = [], []
    while not traced or time.perf_counter() < t_end:
        got = session.op()
        tracer = Tracer()
        with tracer.spans() as absent:
            got_t = session.op(tracer.root)
        if got is None or got_t is None:
            break
        plain.append(got[0] / got[1])
        traced.append((tracer, got_t[0], got_t[0] / got_t[1]))
    if not traced:
        raise RuntimeError("config pool used up before the first traced op")

    first = traced[0][0]
    metrics = {}
    present = {name for name, _, _ in SPANS} - {
        name for name, mod, qual in SPANS if f"{mod}.{qual}" in absent}

    def median_self(name):
        return statistics.median(t.self_s.get(name, 0.0) for t, _, _ in traced)

    metrics[f"{ROOT_SPAN}_s"] = _metric(median_self(ROOT_SPAN), "s")
    for name in sorted(present):
        metrics[f"{name}_calls"] = _metric(first.calls[name], "count")
        metrics[f"{name}_s"] = _metric(median_self(name), "s")
    for layer in LAYERS:
        names = [n for n in present | {ROOT_SPAN} if n.partition(".")[0] == layer]
        if names:
            shares = [sum(t.self_s.get(n, 0.0) for n in names) / wall for t, wall, _ in traced]
            metrics[f"{layer}.share"] = _metric(statistics.median(shares), "ratio")

    def ratio(a, b):
        return a / b if b else 0.0

    tally, calls = first.tally, first.calls
    derived = (
        ("basis.rows_tried", ("basis.functional_rows",), tally["basis.rows_tried"], "count"),
        ("basis.rows_kept", ("basis.build_ledger",), tally["basis.rows_kept"], "count"),
        ("basis.rows_kept_share", ("basis.functional_rows", "basis.build_ledger"),
         ratio(tally["basis.rows_kept"], tally["basis.rows_tried"]), "ratio"),
        ("balance.moves", ("balance.balance",), tally["balance.moves"], "count"),
        ("balance.moves_per_rebuild", ("balance.balance", "balance.compute_W"),
         ratio(tally["balance.moves"], calls["balance.compute_W"]), "ratio"),
        ("verify.rank_rows", ("verify.rank",), tally["verify.rank_rows"], "count"),
        ("verify.rank_useful_share", ("verify.rank",),
         ratio(tally["verify.rank_rank"], tally["verify.rank_rows"]), "ratio"),
        ("linalg.insert_raised_share", ("linalg.insert",),
         ratio(tally["linalg.insert_raised"], calls["linalg.insert"]), "ratio"),
    )
    for name, needs, value, unit in derived:
        if present.issuperset(needs):
            metrics[name] = _metric(value, unit)
    for name, mod, qual in COUNTED:
        if f"{mod}.{qual}" not in absent:
            metrics[f"{name}_calls"] = _metric(first.calls[name], "count")
    for name in sorted({name for name, _, _ in FIELD_COUNTED}):
        if not any(f"{mod}.{qual}" in absent_field for n, mod, qual in FIELD_COUNTED if n == name):
            metrics[f"{name}_calls"] = _metric(field.calls[name], "count")
    overhead = statistics.median(r for _, _, r in traced) / statistics.median(plain) - 1
    metrics["trace.overhead_share"] = _metric(overhead, "ratio")
    notes = [f"absent: {path} (its metrics are not reported)"
             for path in sorted(set(absent) | set(absent_field))]
    return metrics, notes


def run(workload, seed: int, seconds: float, trace: bool, golden: dict | None = None) -> dict:
    """One benchmark run of a ``workloads.Workload``, checked against
    ``golden`` (default: golden.json).  Returns the result printed last,
    with the environment, failures and notes beside it."""
    env = environment()
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        session = Session(workload, seed, work,
                          verdicts.load_golden() if golden is None else golden)
        metrics, notes = (per_layer if trace else end_to_end)(session, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "env": env,
        "notes": notes,
        "failures": session.failures,
        "result": {
            "correct": not session.failures,
            "attempted": session.attempted,
            "failed": len(session.failures),
            "metrics": metrics,
        },
    }


def report(name: str, seed: int, trace: bool, out: dict) -> None:
    env, result = out["env"], out["result"]
    print(f"# workload {name} seed {seed} trace {int(trace)}: commit {env['commit']}, "
          f"python {env['python']}, nproc {env['nproc']}, load average {env['loadavg']:.2f}")
    for index, why in out["failures"]:
        print(f"# FAILED pool config {index}: " + "; ".join(why))
    for note in out["notes"]:
        print(f"# {note}")
    for key, m in result["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(f"failed_share {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    print(json.dumps(result))


def run_all(seed: int, seconds: float) -> int:
    """Every workload, end-to-end then traced, each in its own process."""
    code = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=600,
            )
            print(proc.stdout, end="", flush=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
                code = 1
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not verdicts.have_source():
        print(f"error: no jointslab sources under {verdicts.SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, bool(args.trace), out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
