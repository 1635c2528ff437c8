"""The paper's multiplicity setting on the closed forms of its smallest
cases: every k-flat of F_q^d, with d = m k, and every point a candidate.

Through a point p of F_q^3 pass L = q^2 + q + 1 lines, q + 1 of them in
each of the L planes through p, so M(p) = C(L, 3) - L C(q + 1, 3): 28
for q = 2 and 234 for q = 3.  Through a point of F_2^4 pass 35 planes,
and M(p) = 280 of their pairs span.  Every member through p lies in the
same number of qualifying tuples, c_V = s M(p) / (members through p),
and part (b)'s sum is q^d M(p)^(1/(s-1)).  For q = 5, L = 31 and
M(p) = 3875.  With a fifth of those lines removed, M(p) varies by point,
and the pipeline's outputs are pinned.
"""

import hashlib
import itertools
import json
import random
from math import comb

import pytest

from jointslab import config
from jointslab.cli import EXIT_OK, main
from jointslab.config import JointsConfiguration

from bench_loader import verdicts
from oracles import detect_by_is_joint


def all_flats(q: int, d: int, k: int) -> dict:
    """The JSON config of every k-flat of F_q^d, q prime, in one family
    with m = d / k, and every point of F_q^d a candidate.  A k-flat is
    read off the reduced row echelon basis of its directions, pivots and
    free entries, and its one point that is 0 at the pivot columns."""
    members = []
    for pivots in itertools.combinations(range(d), k):
        others = [c for c in range(d) if c not in pivots]
        free = [(i, c) for i, p in enumerate(pivots) for c in others if c > p]
        for values in itertools.product(range(q), repeat=len(free)):
            dirs = [[int(c == p) for c in range(d)] for p in pivots]
            for (i, c), v in zip(free, values):
                dirs[i][c] = v
            for base in itertools.product(range(q), repeat=d - k):
                point = [0] * d
                for c, v in zip(others, base):
                    point[c] = v
                members.append({"kind": "flat", "dim": k, "ambient": d, "degree": 1,
                                "point": [str(x) for x in point],
                                "directions": [[str(x) for x in u] for u in dirs]})
    return {"field": {"kind": "prime", "p": q}, "seed": 0,
            "families": [{"k": k, "m": d // k, "members": members}],
            "joints": [[str(x) for x in p] for p in itertools.product(range(q), repeat=d)]}


# (q, d, k): (members through a point, M(p), c_V, part (b)'s sum mult_sum_lo)
CASES = {
    (2, 3, 1): (7, 28, 12, "42.3320209770"),
    (3, 3, 1): (13, 234, 54, "413.020580601"),
    (2, 4, 2): (35, 280, 16, "4480"),
    (5, 3, 1): (31, 3875, 375, "7781.18724874"),
}
# the oracle tries every tuple, about 0.08 s a joint at q = 5 on a 2-core
# VM: there it runs at every 7th candidate, the closed forms at every joint
ORACLE_STRIDE = {5: 7}
IDS = [f"q{q}-d{d}-k{k}" for q, d, k in CASES]


@pytest.mark.parametrize("q,d,k", list(CASES), ids=IDS)
def test_every_joint_has_the_closed_form_counts(q, d, k):
    through, M, c_V, _ = CASES[q, d, k]
    obj = all_flats(q, d, k)
    cfg = JointsConfiguration.from_json(obj)
    if k == 1:
        assert M == comb(through, 3) - through * comb(q + 1, 3)
    assert c_V * through == cfg.s * M
    assert len(cfg.joints) == q ** d
    for j in range(q ** d):
        assert len(cfg.charts[j]) == through
        assert cfg.M(j) == M
        assert cfg.uses[j] == {ref: c_V for ref in cfg.charts[j]}
    stride = ORACLE_STRIDE.get(q, 1)
    oracle = detect_by_is_joint(cfg.field, cfg.families, obj["joints"][::stride])
    for j, (p, tuples, _) in zip(range(0, q ** d, stride), oracle):
        assert cfg.joints[j] == p
        assert len(tuples) == M
        assert cfg.chosen[j] == tuples[0]


def test_make_chart_runs_once_per_incidence(monkeypatch):
    # the 117 lines of F_3^3 meet the 27 points in 27 * 13 = 351
    # incidences, out of 3159 (line, point) pairs
    real, calls = config.chart_at, []

    def chart(V, p, z, F):
        calls.append(1)
        return real(V, p, z, F)

    monkeypatch.setattr(config, "chart_at", chart)
    cfg = JointsConfiguration.from_json(all_flats(3, 3, 1))
    assert len(calls) == sum(len(on) for on in cfg.charts) == 351


@pytest.mark.parametrize("q,d,k", list(CASES), ids=IDS)
def test_pipeline_passes_with_the_closed_form_bound(tmp_path, q, d, k):
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(all_flats(q, d, k)))
    assert verdicts.pipeline(main, path, out, ("--n", "2")) == EXIT_OK
    (component,) = json.loads((out / "pipeline.json").read_text())["components"]
    assert component["balance_status"] == "balanced"
    assert component["rank"]["rank"] == component["rank"]["expected"] == comb(2 + d, d)
    assert component["count"]["pass"] and component["pass"]
    bound = component["bound"]
    assert bound["pass_a"] and bound["pass_b"]
    assert bound["mult_sum_lo"] == CASES[q, d, k][3]


# sha256 of pipeline.json and the ledger of 620 of the 775 lines of F_5^3
# at --n 2, as written when root values were compared by cross powers
# (``oracles.cmp_by_cross_powers``): about 150 s on a 2-core machine
FIFTH_REMOVED_SHA256 = {
    "pipeline.json": "78bb79852ce675999543a3af5e50f912e6460a1dbdf6c095adb4ae8d32d094f2",
    "ledger-0.csv": "fbf97d82f7d43116af94310d138c17db859c684159002c20a7a8be68842357ad",
}


def test_pipeline_on_the_lines_of_f5_with_a_fifth_removed(tmp_path):
    # its 125 joints have 35 distinct M(p), from 981 to 3,500, and runs of
    # equal W at different root indices, which the sort orders exactly
    obj = all_flats(5, 3, 1)
    (family,) = obj["families"]
    family["members"] = [family["members"][i]
                         for i in sorted(random.Random(0).sample(range(775), 620))]
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(obj))
    assert verdicts.pipeline(main, path, out, ("--n", "2")) == EXIT_OK
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in FIFTH_REMOVED_SHA256} == FIFTH_REMOVED_SHA256
