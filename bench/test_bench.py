"""Self-test of the benchmark harness, at a tiny size.

    python3 -m unittest bench/test_bench.py      (or: python3 -m pytest bench)

Each workload runs one op of its small spare config against goldens
recorded here, so the harness is checked without the full-size cost.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import random
import shutil
import sys
import unittest
import unittest.mock
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import tracing  # noqa: E402
import verdicts  # noqa: E402
from workloads import POOL_SIZE, WORKLOADS  # noqa: E402

SEED = 3
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(w):
    """The workload with its pool made of spare-sized configs."""
    return dataclasses.replace(w, name=f"{w.name}-tiny", make=w.make_spare, args=w.spare_args)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli_main = verdicts.import_cli()
        cls.work = verdicts.ROOT / ".bench_work" / "self-test"
        cls.work.mkdir(parents=True, exist_ok=True)
        cls.golden = {}
        # the first ops of a run draw these pool indices
        first = random.Random(SEED).sample(range(POOL_SIZE), POOL_SIZE)[:3]
        for w in WORKLOADS.values():
            t = tiny(w)
            cls.golden[t.name] = verdicts.record(cls.cli_main, t, first, cls.work)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def run_tiny(self, name, trace, golden=None):
        out = run.run(tiny(WORKLOADS[name]), SEED, 0, trace, self.golden if golden is None else golden)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            run.report(name, SEED, trace, out)
        return out, printed.getvalue().splitlines()

    def assert_printed(self, lines, specs, result):
        self.assertEqual(json.loads(lines[-1]), result)
        units = {}
        for line in lines[:-1]:
            if not line.startswith("#"):
                name, _, unit = line.split()[:3]
                units[name] = unit
        for spec in specs:
            self.assertEqual(units.get(spec["name"]), spec["unit"], spec["name"])
            self.assertEqual(result["metrics"][spec["name"]]["unit"], spec["unit"])
        self.assertEqual(set(result["metrics"]), {s["name"] for s in specs})
        self.assertEqual(units["failed_share"], "ratio")

    def test_end_to_end_every_workload(self):
        for name in WORKLOADS:
            with self.subTest(name):
                out, lines = self.run_tiny(name, False)
                result = out["result"]
                self.assertEqual((result["correct"], result["attempted"], result["failed"]), (True, 1, 0))
                self.assert_printed(lines, SPEC["end_to_end"], result)

    def test_per_layer_every_workload(self):
        for name in WORKLOADS:
            with self.subTest(name):
                out, lines = self.run_tiny(name, True)
                result = out["result"]
                # field-counting op, one untraced op, one traced op
                self.assertEqual((result["correct"], result["attempted"], result["failed"]), (True, 3, 0))
                self.assert_printed(lines, SPEC["per_layer"], result)
                self.assertEqual(out["notes"], [])

    def test_corrupted_golden_is_counted(self):
        name = "rank-heavy"
        golden = copy.deepcopy(self.golden)
        for entry in golden[f"{name}-tiny"].values():
            entry["components"][0]["count"]["lhs"] += 1
        out, lines = self.run_tiny(name, False, golden)
        result = out["result"]
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (False, 1, 1))
        self.assertIn("failed_share 1 ratio", "\n".join(lines))
        self.assertIn("components", out["failures"][0][1][0])

    def test_traced_run_restores_and_survives_missing_names(self):
        from jointslab import cli, poly

        # `import jointslab.balance` would give the re-exported function
        balance_module = sys.modules["jointslab.balance"]
        originals = (cli.balance, balance_module.compute_W, poly.HasseOperator.compose)
        spans = tracing.SPANS + (("gone.name", "jointslab.poly", "no_such_function"),)
        with unittest.mock.patch.object(tracing, "SPANS", spans), \
                unittest.mock.patch.object(run, "SPANS", spans):
            out, _ = self.run_tiny("rank-heavy", True)
        self.assertTrue(out["result"]["correct"])
        self.assertEqual(out["notes"], [
            "absent: jointslab.poly.no_such_function (its metrics are not reported)"])
        self.assertNotIn("gone.name_s", out["result"]["metrics"])
        self.assertEqual(originals, (cli.balance, balance_module.compute_W, poly.HasseOperator.compose))
        self.assertIs(cli.balance, balance_module.balance)


if __name__ == "__main__":
    unittest.main()
