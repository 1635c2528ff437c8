"""Ledgers and verdicts of the benchmark's pool configs are unchanged.

Runs ``jointslab pipeline`` on pool configs 0 and 1 of every benchmark
workload and checks each outcome (exit code, verdict projection of
``pipeline.json``, ledger sha256, rank == C(n+d, d)) against
``bench/golden.json``, by the benchmark's own ``verdicts.problems``.
On pool config 0 it also counts the matrix inverses, chart builds and
membership tests a pipeline op takes, and where the inverses happen, and checks that every chart a
ledger or a check reads is one the configuration built at detection.
There, and on the curved test configs, every chart detection built is the
one ``make_chart`` builds from scratch.
While curved-q pool configs 0-3 run, it counts the expansion rows read
along coordinates that hold a ``Fraction``.
Curved-q pool configs 0-3 moved off the integer grid give the same
reports and ledgers as where they are.  Those configs, and the curved
configs the tests build over Q, give the same outputs, curved members'
regular-function dimensions and first-joint witnesses read mod a large
prime.  The
``balance`` command prints descent-heavy pool config 0's W values
correctly rounded.
"""

import contextlib
import io
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from jointslab import basis, config, linalg, poly, varieties, verify
from jointslab.balance import balance
from jointslab.basis import functional_rows
from jointslab.cli import EXIT_OK, EXIT_USAGE, main
from jointslab.config import JointsConfiguration
from jointslab.errors import NotOnVariety, SingularPoint
from jointslab.field import DEFAULT_PRIME, FieldSpec, binom
from jointslab.poly import parse_poly, taylor_shift
from jointslab.varieties import (
    ambient_equations,
    dim_regular_functions,
    make_chart,
    tangent_space,
    variety_from_json,
)
from jointslab.verify import hasse_vanishing_witness

from bench_loader import verdicts
from curved import FQ, circle_and_lines, curved_plane_config, parabola_and_circle
from oracles import detect_by_is_joint, joint_records, records_of_tuples

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


# per workload: chart builds, tests of a member's own equations and
# contains_point calls of one pipeline op on pool config 0.  Detection
# tries a member only at the candidates its carrier holds: a flat at its
# incidences, a curved member at those of its carrier.  There it tests
# only the member's own equations, so the second count is the number of
# chart attempts, and no step runs the carrier's test again
CHART_COUNTS = {
    "rank-heavy": (15, 15, 0),
    "descent-heavy": (32, 32, 0),
    "curved-q": (44, 113, 0),
    "detect-heavy": (105, 105, 0),
}

# per workload: IncrementalRowReducer.insert calls while pool config 0
# loads.  Each flat's own tangent rows are reduced once per config, when a
# pair or a prefix needs them, and each pair of flats once per pair of
# direction classes; two flats through two common candidates are a
# dependent pair with no reduction, and a graph's frame is eliminated
# once, by its inverse
LOAD_INSERTS = {
    "rank-heavy": 298,
    "descent-heavy": 2,
    "curved-q": 137,
    "detect-heavy": 976,
}


# (poly.expansion_row calls that read a coordinate map holding a Fraction,
# all calls) while curved-q pool configs 0-3 run pipeline.  Over Q a
# reader through coefficient_along reads its rows along integral
# coordinates, the series are solved in ints, and the rank check and
# ledgers read the series at their scales in ints; what is left is flat
# ledger rows at a non-integral z
CURVED_FRACTION_ROWS = (8, 5000)


@pytest.mark.parametrize("name", list(verdicts.WORKLOADS))
def test_load_time_row_inserts(monkeypatch, name):
    real, calls = linalg.IncrementalRowReducer.insert, []

    def insert(self, row):
        calls.append(1)
        return real(self, row)

    monkeypatch.setattr(linalg.IncrementalRowReducer, "insert", insert)
    obj = json.loads(verdicts.config_text(verdicts.WORKLOADS[name].config(0)))
    JointsConfiguration.from_json(obj)
    assert len(calls) == LOAD_INSERTS[name]


@pytest.mark.parametrize("name", list(verdicts.WORKLOADS))
def test_pipeline_inverts_only_graph_frames(tmp_path, monkeypatch, name):
    # a chart reads its parametrization off its basis columns and takes no
    # inverse; a graph's carrier inverts its frame once per member, while
    # the config loads.  Detection builds each chart once per member and
    # incidence, and no later step builds a chart, so each build is a
    # distinct (member, point)
    calls, built, inside, inverted = Counter(), [], [], []
    real_chart, real_load = varieties.chart_at, config.JointsConfiguration.from_json

    def within(where, fn, *args):
        inside.append(where)
        try:
            return fn(*args)
        finally:
            inside.pop()

    def chart(V, p, z, F):
        C = within("chart", real_chart, V, p, z, F)
        calls[f"{V.kind} chart"] += 1
        built.append((id(V), C.center))
        return C

    def inverse(F, A):
        inverted.append(tuple(inside))
        return linalg_inverse(F, A)

    linalg_inverse = linalg.inverse
    monkeypatch.setattr(linalg, "inverse", inverse)
    monkeypatch.setattr(config.JointsConfiguration, "from_json",
                        staticmethod(lambda obj: within("load", real_load, obj)))
    monkeypatch.setattr(varieties, "contains_point",
                        _counting(calls, lambda *a: "contains_point", varieties.contains_point))
    own = _counting(calls, lambda *a: "own_coordinates", varieties.own_coordinates)
    for module in (varieties, config):
        monkeypatch.setattr(module, "own_coordinates", own)
        monkeypatch.setattr(module, "chart_at", chart)
    workload = verdicts.WORKLOADS[name]
    obj = workload.config(0)
    graphs = sum(V["kind"] == "graph" for f in obj["families"] for V in f["members"])
    path = tmp_path / "config.json"
    path.write_text(verdicts.config_text(obj))
    assert verdicts.pipeline(main, path, tmp_path / "out", workload.args) == workload.exit_code
    assert inverted == [("load",)] * graphs
    assert (graphs > 0) == (calls["graph chart"] > 0) == (name == "curved-q")
    assert len(set(built)) == len(built)
    assert (len(built), calls["own_coordinates"], calls["contains_point"]) == CHART_COUNTS[name]


def _incidence_configs() -> dict:
    """name -> JSON objects of pool config 0 of every workload and of the
    curved test configs, over Q and mod a large prime."""
    configs = {f"{name}-0": workload.config(0) for name, workload in verdicts.WORKLOADS.items()}
    for make in (circle_and_lines, parabola_and_circle, curved_plane_config):
        for field in ({"kind": "rational"}, {"kind": "prime", "p": DEFAULT_PRIME}):
            configs[f"{make.__name__}-{field['kind']}"] = {**make(FQ).to_json(), "field": field}
    return configs


@pytest.mark.parametrize("name", list(_incidence_configs()))
def test_detection_charts_are_the_checked_ones(monkeypatch, name):
    # Detection tests only a member's own equations at the candidates its
    # carrier holds, raising no NotOnVariety, and builds each chart from
    # the z that test gives.  At every joint and member that is what
    # make_chart gives on the member read afresh: NotOnVariety off the
    # member, SingularPoint where detection holds None, else the same chart
    obj = _incidence_configs()[name]
    raised = []
    monkeypatch.setattr(NotOnVariety, "__init__", lambda self, *args: raised.append(args))
    cfg = JointsConfiguration.from_json(obj)
    monkeypatch.undo()
    assert raised == []
    F = cfg.field
    fresh = {(fi, mi): variety_from_json(V, F)
             for fi, family in enumerate(obj["families"]) for mi, V in enumerate(family["members"])}
    for p, on in zip(cfg.joints, cfg.charts):
        for ref, V in fresh.items():
            try:
                D = make_chart(V, p, F)
            except NotOnVariety:
                assert ref not in on
                continue
            except SingularPoint:
                assert ref in on and on[ref] is None
                continue
            C = on[ref]
            assert ([C.center, C.frame, C.z, C.basis, C.scale, C.row_scale, C.series_scale,
                     C.series(4)] == [D.center, D.frame, D.z, D.basis, D.scale, D.row_scale,
                                      D.series_scale, D.series(4)])


def test_curved_rows_are_read_in_ints(tmp_path, monkeypatch):
    real, calls = poly.expansion_row, []

    def row(F, coords, n, gamma, memo):
        calls.append(any(type(c) is Fraction for x in coords for c in x.values()))
        return real(F, coords, n, gamma, memo)

    for module in (poly, basis, varieties, verify):
        monkeypatch.setattr(module, "expansion_row", row)
    workload = verdicts.WORKLOADS["curved-q"]
    for index in range(4):
        path = tmp_path / f"config-{index}.json"
        path.write_text(verdicts.config_text(workload.config(index)))
        out = tmp_path / f"out-{index}"
        assert verdicts.pipeline(main, path, out, workload.args) == workload.exit_code
    assert (sum(calls), len(calls)) == CURVED_FRACTION_ROWS


@pytest.mark.parametrize("index", range(4))
def test_reduction_mod_a_large_prime_is_the_oracle_of_the_Q_path(tmp_path, index):
    # The Q path has arithmetic of its own: lambda-scaled integer rows,
    # series solved in ints at a scale and fraction-free elimination.  Over F_p
    # rows are residues with lead 1 and lambda is 1.  A config with
    # integral data, reduced mod a prime that divides none of its
    # incidence, tangency and ledger minors, gives the same joints,
    # ledgers and verdicts, so the output bytes agree.
    workload = verdicts.WORKLOADS["curved-q"]
    obj = workload.config(index)
    assert obj["field"] == {"kind": "rational"}
    got = {}
    for p in (None, 2**31 - 1, DEFAULT_PRIME):
        obj["field"] = {"kind": "rational"} if p is None else {"kind": "prime", "p": p}
        path, out = tmp_path / f"config-{p}.json", tmp_path / f"out-{p}"
        path.write_text(verdicts.config_text(obj))
        code = verdicts.pipeline(main, path, out, workload.args)
        got[p] = code, [(out / f).read_bytes() for f in ("pipeline.json", "ledger-0.csv",
                                                          "ledger-0.json")]
    assert got[None][0] == workload.exit_code
    assert got[2**31 - 1] == got[None]
    assert got[DEFAULT_PRIME] == got[None]


@pytest.mark.parametrize("make", [circle_and_lines, parabola_and_circle, curved_plane_config],
                         ids=["circle-and-lines", "parabola-and-circle", "curved-plane-cusp"])
def test_reduction_mod_a_large_prime_is_the_oracle_of_the_curved_test_configs(tmp_path, make):
    # The curved configs the tests build over Q, read mod each prime: the
    # same joints (reduced), designated tuples, counts c_V and M(p), which
    # are those that ``is_joint`` gives tuple by tuple over each field, and
    # members through each joint, with a chart or singular there (the cusp
    # at the origin), and the same exit code and pipeline.json bytes
    obj = make(FQ).to_json()
    got = {}
    for p in (None, 2**31 - 1, DEFAULT_PRIME):
        obj["field"] = {"kind": "rational"} if p is None else {"kind": "prime", "p": p}
        cfg = JointsConfiguration.from_json(obj)
        records = joint_records(cfg)
        assert records == records_of_tuples(
            detect_by_is_joint(cfg.field, cfg.families, obj["joints"]))
        incidence = [{ref: C is None for ref, C in on.items()} for on in cfg.charts]
        path, out = tmp_path / f"config-{p}.json", tmp_path / f"out-{p}"
        path.write_text(json.dumps(obj))
        code = verdicts.pipeline(main, path, out, ("--n", "3"))
        got[p] = (*records, incidence, code, (out / "pipeline.json").read_bytes())
    joints, *rest = got[None]
    assert joints and rest[4] == EXIT_OK
    for p in (2**31 - 1, DEFAULT_PRIME):
        Fp = FieldSpec("prime", p)
        assert got[p] == ([tuple(Fp.of(x) for x in q) for q in joints], *rest)


@pytest.mark.parametrize("name", list(verdicts.WORKLOADS))
def test_ledgers_and_checks_read_the_configurations_charts(monkeypatch, name):
    workload = verdicts.WORKLOADS[name]
    cfg = JointsConfiguration.from_json(workload.config(0))
    n = int(workload.args[workload.args.index("--n") + 1])
    own = {id(C) for on in cfg.charts for C in on.values() if C is not None}
    state = balance(cfg, n, cap=3)
    for ref, led in state.ledgers.items():
        for st in led.steps:
            C = cfg.charts[st.joint][ref]
            memo, rows = C.expansion_memos[n], functional_rows(C, st.order, n)
            assert all(rows[gamma] is memo[gamma] for gamma in st.gammas)
    for j, chosen in enumerate(cfg.chosen):
        assert all(C is cfg.charts[j][ref] for C, ref in zip(cfg.designated_charts(j), chosen))
    read = []
    real_coordinates = varieties.Chart.coordinates

    def coordinates(C, r):
        read.append(id(C))
        return real_coordinates(C, r)

    monkeypatch.setattr(varieties.Chart, "coordinates", coordinates)
    verify.vanishing_rank_check(cfg, state.ledgers, n)
    assert read and set(read) <= own


def _curved_configs() -> dict:
    """name -> JSON objects of curved-q pool configs 0-3 and of the curved
    test configs, all over Q."""
    configs = {f"curved-q-{i}": verdicts.WORKLOADS["curved-q"].config(i) for i in range(4)}
    for make in (circle_and_lines, parabola_and_circle, curved_plane_config):
        configs[make.__name__] = make(FQ).to_json()
    return configs


def _curved_members() -> dict:
    """name -> JSON objects of the graph and hypersurface members of
    curved-q pool configs 0-3 and of the curved test configs."""
    return {name: [V for family in obj["families"] for V in family["members"]
                   if V["kind"] != "flat"]
            for name, obj in _curved_configs().items()}


@pytest.mark.parametrize("name", list(_curved_members()))
def test_regular_function_dimensions_agree_mod_a_large_prime(name):
    # A graph's dim R_{V,<=n} is a rank of integer rows, so it can only
    # drop mod a prime that divides a minor of them; a hypersurface's is
    # read off its degree.  Every member here is a plane curve of degree
    # e, whose dimension is C(n+2, 2) - C(n-e+2, 2) over any field, so no
    # prime is bad for any case.
    members = _curved_members()[name]
    assert members
    for obj in members:
        got = {}
        for p in (None, 2**31 - 1, DEFAULT_PRIME):
            Ff = FQ if p is None else FieldSpec("prime", p)
            V = variety_from_json(obj, Ff)
            got[p] = [dim_regular_functions(V, n, Ff) for n in range(1, 7)]
        e = V.degree
        assert got[None] == [binom(n + 2, 2) - binom(n - e + 2, 2) for n in range(1, 7)]
        assert got[2**31 - 1] == got[DEFAULT_PRIME] == got[None]


def _determinant(rows) -> Fraction:
    """The determinant of a square matrix of rationals, by expansion along
    the first row."""
    if not rows:
        return Fraction(1)
    return sum((-1) ** j * a * _determinant([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


# G, a fixed integer polynomial with no term of degree below 3.  The
# witness reads it at a joint p as G(x - p), which vanishes there to order
# 3 along the first chart's tangent, and as e G(x - p) for the first
# designated member's equation e, whose orders are split across the charts
WITNESS_G = "2 * x1^3 + -1 * x1^2 x2 + 3 * x1 x2^2 + 1 * x2^3 + 5 * x1^2 x2^2"


@pytest.mark.parametrize("name", list(_curved_configs()))
def test_witness_agrees_mod_a_large_prime(name):
    # The witness at the first joint frames g by the designated charts'
    # tangent rows and reads its value along their coordinates.  Read over
    # F_q it gives the Q orders, total order, pass and value (reduced mod
    # q) unless q divides one of the integers below; no prime here does,
    # and a bad one fails the case with the quantity it divides
    obj = _curved_configs()[name]
    got = {}
    for q in (None, 2**31 - 1, DEFAULT_PRIME):
        obj["field"] = {"kind": "rational"} if q is None else {"kind": "prime", "p": q}
        cfg = JointsConfiguration.from_json(obj)
        Ff, p, charts = cfg.field, cfg.joints[0], cfg.designated_charts(0)
        G = taylor_shift(parse_poly(WITNESS_G, Ff, cfg.ambient), [Ff.neg(x) for x in p])
        e = ambient_equations(cfg.member(cfg.chosen[0][0]), Ff)[0]
        ws = [hasse_vanishing_witness(p, charts, g) for g in (G, e * G)]
        got[q] = (p, cfg.chosen[0],
                  [(w["orders"], w["total_order"], w["pass"], w["value"]) for w in ws])
        if q is None:
            values = [*p, *e.terms.values(),
                      *(c for C in charts for x in C.coordinates(1) for c in x.values())]
            quantities = {
                "lcm of the denominators of the joint, the equation and the charts' coordinates":
                    math.lcm(*(Fraction(x).denominator for x in values)),
                "numerator of the tangent determinant":
                    _determinant([v for C in charts for v in tangent_space(C)]).numerator,
                "numerator of the value of G": ws[0]["value"].numerator,
                "numerator of the value of e G": ws[1]["value"].numerator,
            }
    p, chosen, results = got[None]
    assert [r[:3] for r in results] == [([3, 0], 3, True), ([3, 1], 4, True)]
    for q in (2**31 - 1, DEFAULT_PRIME):
        divided = [what for what, v in quantities.items() if v % q == 0]
        assert not divided, f"{q} divides the {' and the '.join(divided)}"
        Fq = FieldSpec("prime", q)
        assert got[q] == (tuple(Fq.of(x) for x in p), chosen,
                          [(*r[:3], Fq.of(r[3])) for r in results])


def test_balance_prints_W_correctly_rounded(tmp_path):
    # descent-heavy pool config 0 ends its descent at W = 0 and W = 1/15,
    # once printed as the 48-bit bracket midpoints 1.7763568394002505e-15
    # and 0.0666666666666682
    workload = verdicts.WORKLOADS["descent-heavy"]
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(verdicts.config_text(workload.config(0)))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["balance", "--config", str(path), "--out-dir", str(out), *workload.args])
    assert code == workload.exit_code
    lines = (out / "balance.csv").read_text().splitlines()
    assert lines[0] == "iteration,t,min_W,max_W,changed"
    assert [line.split(",")[2:4] for line in lines[1:]] == [["0.0", "0.06666666666666667"]] * 2


def _translated(cfg: dict, v) -> dict:
    """The configuration moved by the vector v: every flat's and
    hypersurface's point, every graph's frame translation b - M v and
    every candidate joint."""
    def shift(point):
        return [str(Fraction(x) + a) for x, a in zip(point, v)]

    out = json.loads(json.dumps(cfg))
    for family in out["families"]:
        for V in family["members"]:
            if V["kind"] == "graph":
                M = [[Fraction(x) for x in row] for row in V["frame_matrix"]]
                V["frame_translation"] = [str(Fraction(b) - sum(m * a for m, a in zip(row, v)))
                                          for b, row in zip(V["frame_translation"], M)]
            else:
                V["point"] = shift(V["point"])
    out["joints"] = [shift(p) for p in out["joints"]]
    return out


@pytest.mark.parametrize("index", range(4))
def test_non_integral_centers_give_the_same_outputs(tmp_path, index):
    # moved by (1/2, -1/3), every chart center is non-integral, so rows
    # over Q carry Fractions through their constant terms; the reports
    # and ledgers are those of the unmoved configuration
    workload = verdicts.WORKLOADS["curved-q"]
    cfg = workload.config(index)
    moved = _translated(cfg, (Fraction(1, 2), Fraction(-1, 3)))
    outputs = []
    for name, case in (("here", cfg), ("moved", moved)):
        path = tmp_path / f"{name}.json"
        path.write_text(verdicts.config_text(case))
        out = tmp_path / name
        assert verdicts.pipeline(main, path, out, workload.args) == workload.exit_code
        outputs.append([(out / f).read_bytes() for f in ("pipeline.json", "ledger-0.csv")])
    assert outputs[0] == outputs[1]


def _axes_config(third: dict) -> dict:
    """The two axes of Q^2 meeting at the origin, the only candidate, and
    a third member."""
    def axis(u):
        return {"kind": "flat", "dim": 1, "ambient": 2, "degree": 1,
                "point": ["0", "0"], "directions": [u]}

    return {"field": {"kind": "rational"}, "seed": 0, "joints": [["0", "0"]],
            "families": [{"k": 1, "m": 2,
                          "members": [axis(["1", "0"]), axis(["0", "1"]), third]}]}


def test_raw_members_have_no_charts(tmp_path, capsys):
    # raw is not a variety kind: a raw curve x1 = c is an input error at
    # load whether it passes through the candidate (c = 0) or not
    path = tmp_path / "config.json"
    for equation in ("1 * x1", "1 * x1 + -5"):
        raw = {"kind": "raw", "dim": 1, "ambient": 2, "degree": 1, "slice_degree": 1,
               "equations": [equation]}
        path.write_text(json.dumps(_axes_config(raw)))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(path), "--out-dir", str(out)]) == EXIT_USAGE
        assert "unknown variety kind 'raw'" in capsys.readouterr().err


def test_member_singular_at_the_joint_imposes_no_condition(tmp_path):
    # the cusp x2^2 = x1^3 passes through the origin with no chart: the
    # axes alone span, and the cusp's ledger is empty
    cusp = {"kind": "hypersurface", "dim": 1, "ambient": 2, "degree": 3,
            "point": ["0", "0"], "directions": [["1", "0"], ["0", "1"]],
            "equations": ["1 * x2^2 + -1 * x1^3"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_axes_config(cusp)))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(path), "--n", "2", "--out-dir", str(out)]) == EXIT_OK
    (component,) = json.loads((out / "pipeline.json").read_text())["components"]
    assert component["rank"]["rank"] == component["rank"]["expected"] == 6
    rows = (out / "ledger-0.csv").read_text().splitlines()
    assert rows[0] == "variety,joint,r,count" and not any(r.startswith("0-2,") for r in rows)
    assert json.loads((out / "ledger-0.json").read_text())["0-2"] == {}
