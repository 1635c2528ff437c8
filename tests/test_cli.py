"""End-to-end command-line behavior: exit codes, manifests, determinism."""

import argparse
import json
from pathlib import Path
from unittest.mock import ANY

import pytest

from jointslab import cli
from jointslab.cli import (
    EXIT_CAP_HIT,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from jointslab.config import Family, JointsConfiguration, detect_joints
from jointslab.field import FieldSpec
from jointslab.varieties import VarietySpec


def run(argv, capsys=None):
    code = main(argv)
    return code


def gen(tmp_path, name, extra=()):
    out = tmp_path / name
    code = main(["generate", "--kind", "generic-hyperplanes", "--d", "3",
                 "--h", "4", "--seed", "5", "--out-dir", str(out), *extra])
    assert code == EXIT_OK
    return out / "config.json"


def test_generate_writes_config_and_manifest(tmp_path):
    cfg_path = gen(tmp_path, "a")
    obj = json.loads(cfg_path.read_text())
    assert obj["families"] and obj["joints"]
    manifest = json.loads((cfg_path.parent / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["outputs"] == [str(cfg_path)]


def test_generate_deterministic_bytes(tmp_path):
    a = gen(tmp_path, "a").read_bytes()
    b = gen(tmp_path, "b").read_bytes()
    assert a == b


def test_generate_random_flats_meet_at_the_origin(tmp_path, capsys):
    # four random 2-flats through the origin of F^6: one joint, where every
    # triple of them spans, so M = C(4, 3) = 4
    out = tmp_path / "flats"
    assert main(["generate", "--kind", "random-flats", "--seed", "0",
                 "--out-dir", str(out)]) == EXIT_OK
    assert "1 joints, 4 member varieties" in capsys.readouterr().out
    cfg = JointsConfiguration.from_json(json.loads((out / "config.json").read_text()))
    assert cfg.joints == [(0,) * 6] and cfg.M(0) == 4


def test_pipeline_passes(tmp_path):
    cfg_path = gen(tmp_path, "a")
    out = tmp_path / "pipe"
    code = main(["pipeline", "--config", str(cfg_path), "--n", "4",
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    rep = json.loads((out / "pipeline.json").read_text())
    assert rep["pass"] is True
    assert rep["n"] == 4
    assert (out / "ledger-0.csv").read_text().startswith("variety,joint,r,count")
    assert (out / "manifest.json").exists()


def test_balance_outputs(tmp_path):
    cfg_path = gen(tmp_path, "a")
    out = tmp_path / "bal"
    code = main(["balance", "--config", str(cfg_path), "--n", "3",
                 "--out-dir", str(out)])
    assert code in (EXIT_OK, EXIT_CAP_HIT)
    alpha = json.loads((out / "alpha.json").read_text())
    assert set(alpha) == {"status", "iterations", "alpha"}
    lines = (out / "balance.csv").read_text().splitlines()
    assert lines[0] == "iteration,t,min_W,max_W,changed"


def test_manifests_list_every_output_file(tmp_path):
    def outputs(command, cfg_path):
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--n", "2",
                     "--out-dir", str(out)]) == EXIT_OK
        listed = json.loads((out / "manifest.json").read_text())["outputs"]
        written = {str(f) for f in out.iterdir() if f.name != "manifest.json"}
        assert len(listed) == len(written) and set(listed) == written
        return [Path(f).name for f in listed]

    # two coordinate-split triples of 2-flats at far-apart centers of Q^6:
    # two components, so `pipeline` writes two pairs of ledger files
    def flat(axes, point):
        dirs = tuple(tuple(int(i == a) for i in range(6)) for a in axes)
        return VarietySpec(kind="flat", ambient=6, dim=2, degree=1, point=point, directions=dirs)

    centers = [(0,) * 6, (100,) * 6]
    members = [flat(axes, q) for q in centers for axes in ((0, 1), (2, 3), (4, 5))]
    cfg = detect_joints(FieldSpec("rational"), [Family(k=2, m=3, members=members)],
                        candidates=centers)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_json()))
    assert outputs("pipeline", cfg_path) == [
        "pipeline.json", "ledger-0.csv", "ledger-0.json", "ledger-1.csv", "ledger-1.json"]
    assert outputs("balance", gen(tmp_path, "a")) == ["alpha.json", "balance.csv"]


def test_verify_rank_and_count(tmp_path):
    cfg_path = gen(tmp_path, "a")
    for check in ("rank", "count", "bound"):
        out = tmp_path / check
        code = main(["verify", check, "--config", str(cfg_path), "--n", "4",
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        got = json.loads((out / f"verify-{check}.json").read_text())
        assert got["pass"] is True
        assert "elapsed_s" in got


def test_verify_witness(tmp_path):
    cfg_path = gen(tmp_path, "a")
    out = tmp_path / "wit"
    code = main(["verify", "witness", "--config", str(cfg_path),
                 "--joint", "0", "--poly", "1 * x1 + 1", "--n", "3",
                 "--out-dir", str(out)])
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    got = json.loads((out / "verify-witness.json").read_text())
    assert got["check"] == "witness"


def test_witness_charts_follow_the_polynomial_degree(tmp_path):
    out = tmp_path / "flats"
    assert main(["generate", "--kind", "coordinate-flats", "--d", "6", "--k", "2",
                 "--out-dir", str(out)]) == EXIT_OK
    code = main(["verify", "witness", "--config", str(out / "config.json"),
                 "--poly", "1 * x1^5", "--n", "2", "--out-dir", str(out)])
    assert code == EXIT_OK
    got = json.loads((out / "verify-witness.json").read_text())
    assert got["orders"] == [5, 0, 0] and got["pass"] is True


def test_verify_sz_without_config(tmp_path):
    out = tmp_path / "sz"
    code = main(["verify", "sz", "--poly", "1 * x1 x2", "--d", "2",
                 "--set", "0,1,2", "--out-dir", str(out)])
    assert code == EXIT_OK
    got = json.loads((out / "verify-sz.json").read_text())
    assert got["lhs"] == got["rhs"] == 6


def test_verify_sz_distinct_set(tmp_path):
    out = tmp_path / "sz"
    code = main(["verify", "sz", "--poly", "1 * x1", "--d", "2", "--set", "0,1",
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    got = json.loads((out / "verify-sz.json").read_text())
    assert got["lhs"] == got["rhs"] == 2


def test_usage_errors(tmp_path):
    assert main(["pipeline"]) == EXIT_USAGE
    assert main(["balance"]) == EXIT_USAGE
    assert main(["verify", "rank"]) == EXIT_USAGE
    assert main(["verify", "witness", "--config", "/nonexistent.json"]) == EXIT_USAGE
    assert main(["nope"]) == EXIT_USAGE


def test_check_failure_exit_code(tmp_path, monkeypatch):
    # honest configurations always pass the rank check, so exercise the
    # failure path by stubbing the check itself
    import jointslab.cli as cli

    cfg_path = gen(tmp_path, "a")
    monkeypatch.setattr(
        cli, "vanishing_rank_check",
        lambda cfg, ledgers, n: {"rank": 0, "expected": 1, "rows": 0, "pass": False},
    )
    code = main(["verify", "rank", "--config", str(cfg_path), "--n", "3",
                 "--out-dir", str(tmp_path / "r")])
    assert code == EXIT_CHECK_FAILED


def test_non_square_frame_matrix_is_input_error(tmp_path):
    parabola = {"kind": "graph", "dim": 1, "ambient": 2, "degree": 2,
                "frame_matrix": [["1", "0"], ["0", "1"], ["0", "0"]],
                "frame_translation": ["0", "0"], "equations": ["1 * x1^2"]}
    line = {"kind": "flat", "dim": 1, "ambient": 2, "degree": 1,
            "point": ["0", "0"], "directions": [["0", "1"]]}
    cfg = {"field": {"kind": "rational"}, "seed": 0, "joints": [["0", "0"]],
           "families": [{"k": 1, "m": 2, "members": [parabola, line]}]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["pipeline", "--config", str(cfg_path), "--out-dir", str(tmp_path / "p")])
    assert code == EXIT_USAGE


def test_singular_graph_frame_is_input_error(tmp_path, capsys):
    # the graph's carrier inverts its frame while the config loads; that
    # inverse, not a separate rank, refuses a singular frame
    parabola = {"kind": "graph", "dim": 1, "ambient": 2, "degree": 2,
                "frame_matrix": [["1", "2"], ["2", "4"]],
                "frame_translation": ["0", "0"], "equations": ["1 * x1^2"]}
    cfg = {"field": {"kind": "rational"}, "seed": 0, "joints": [["0", "0"]],
           "families": [{"k": 1, "m": 1, "members": [parabola]}]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["pipeline", "--config", str(cfg_path), "--out-dir", str(tmp_path / "p")])
    assert code == EXIT_USAGE
    assert "singular" in capsys.readouterr().err


def test_the_parser_is_built_once_and_reused(tmp_path, monkeypatch, capsys):
    # two successive calls with different flags give what two calls with
    # a fresh parser each give: nothing of the first call's flags stays
    cfg_path = gen(tmp_path, "a")
    capsys.readouterr()
    calls = [["pipeline", "--config", str(cfg_path), "--n", "2", "--tau", "1/2", "--cap", "2"],
             ["pipeline", "--config", str(cfg_path)]]
    real, built = cli.build_parser, []

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)

    def results(fresh):
        got = []
        for i, argv in enumerate(calls):
            if fresh:
                cli._parser.cache_clear()
            out = tmp_path / f"{fresh}-{i}"
            code = main([*argv, "--out-dir", str(out)])
            got.append((code, capsys.readouterr().out, (out / "pipeline.json").read_text()))
        return got

    fresh = results(True)
    built.clear()
    cli._parser.cache_clear()
    assert results(False) == fresh
    assert len(built) == 1
    assert fresh[0] != fresh[1]


def _drop(key):
    def edit(text):
        obj = json.loads(text)
        del obj[key]
        return json.dumps(obj)
    return edit


def _zero_direction(text):
    obj = json.loads(text)
    obj["families"][0]["members"][0]["directions"] = [["0", "0", "0"]]
    return json.dumps(obj)


def _no_joints(text):
    obj = json.loads(text)
    obj["joints"] = []
    return json.dumps(obj)


def _set_m(m):
    def edit(text):
        obj = json.loads(text)
        obj["families"][0]["m"] = m
        return json.dumps(obj)
    return edit


def _resize(key, size):
    """Joint 0, member 0's point or its first direction cut or padded with
    zeros to size entries."""
    def edit(text):
        obj = json.loads(text)
        member = obj["families"][0]["members"][0]
        vec = {"joint": obj["joints"][0], "point": member["point"],
               "direction": member["directions"][0]}[key]
        vec[:] = (vec + ["0"] * size)[:size]
        return json.dumps(obj)
    return edit


def _set_field(field):
    def edit(text):
        obj = json.loads(text)
        obj["field"] = field
        return json.dumps(obj)
    return edit


def _set_key(where, key, value):
    """key of the config itself, of family 0 or of its member 0 set to
    value."""
    def edit(text):
        obj = json.loads(text)
        family = obj["families"][0]
        {"config": obj, "family": family, "member": family["members"][0]}[where][key] = value
        return json.dumps(obj)
    return edit


def _empty_family(**fields):
    """Family 0 with no members and its fields overridden."""
    def edit(text):
        obj = json.loads(text)
        obj["families"][0].update(members=[], **fields)
        return json.dumps(obj)
    return edit


def _json_entry(key, value):
    """The first entry of joint 0, of member 0's point or of its first
    direction set to a JSON value: one that is not a string, or a string
    that is no field element."""
    def edit(text):
        obj = json.loads(text)
        member = obj["families"][0]["members"][0]
        vec = {"joint": obj["joints"][0], "point": member["point"],
               "direction": member["directions"][0]}[key]
        vec[0] = value
        return json.dumps(obj)
    return edit


def _retype(*path, make=lambda v: {str(i): x for i, x in reversed(list(enumerate(v)))}):
    """The value at ``path`` (keys and indices from the config's root)
    replaced by ``make`` of it: by default an object keyed by its indices
    in reverse order, so that a loop over its keys reads [1, 0] for
    {"1": a, "0": b}."""
    def edit(text):
        obj = json.loads(text)
        *head, last = path
        at = obj
        for key in head:
            at = at[key]
        at[last] = make(at[last])
        return json.dumps(obj)
    return edit


def _plane_curve(**fields):
    """A config over Q in the plane: one family of two curves through the
    origin, the circle x1^2 + x2^2 = x2 (or a parabola x2 = x1^2 as a
    graph) and the line x1 = 0, with the curve's fields overridden."""
    curves = {
        "hypersurface": {"kind": "hypersurface", "dim": 1, "ambient": 2, "degree": 2,
                         "point": ["0", "0"], "directions": [["1", "0"], ["0", "1"]],
                         "equations": ["1 * x1^2 + 1 * x2^2 + -1 * x2"]},
        "graph": {"kind": "graph", "dim": 1, "ambient": 2, "degree": 2,
                  "frame_matrix": [["1", "0"], ["0", "1"]], "frame_translation": ["0", "0"],
                  "equations": ["1 * x1^2"]},
    }
    line = {"kind": "flat", "dim": 1, "ambient": 2, "degree": 1,
            "point": ["0", "0"], "directions": [["0", "1"]]}
    curve = {**curves[fields.pop("kind")], **fields}

    def edit(text):
        return json.dumps({"field": {"kind": "rational"}, "seed": 0, "joints": [["0", "0"]],
                           "families": [{"k": 1, "m": 2, "members": [curve, line]}]})
    return edit


def _paraboloid(degree=2):
    """A config over Q in 3-space: the surface x3 = x1^2 + x2^2, a graph
    of degree 2 over the plane x3 = 0, and the line x1 = x2 = 0, which meet
    at a joint at the origin; with the surface's ``degree`` declared as
    given, or left out for None."""
    surface = {"kind": "graph", "dim": 2, "ambient": 3, "degree": degree,
               "frame_matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
               "frame_translation": ["0", "0", "0"], "equations": ["1 * x1^2 + 1 * x2^2"]}
    if degree is None:
        del surface["degree"]
    line = {"kind": "flat", "dim": 1, "ambient": 3, "degree": 1,
            "point": ["0", "0", "0"], "directions": [["0", "0", "1"]]}

    def edit(text):
        return json.dumps({"field": {"kind": "rational"}, "seed": 0, "joints": [["0", "0", "0"]],
                           "families": [{"k": 2, "m": 1, "members": [surface]},
                                        {"k": 1, "m": 1, "members": [line]}]})
    return edit


# argv with CFG standing for a generated config (lines in 3-space, m = 3),
# and an edit of its text
CFG = "<config>"
MEMBER = ("families", 0, "members", 0)
MALFORMED = {
    "poly-juxtaposition": (["verify", "sz", "--poly", "2 x1"], None),
    "poly-minus-operator": (["verify", "sz", "--poly", "1 * x1 - 1"], None),
    "poly-unknown-name": (["verify", "sz", "--poly", "1 * y1"], None),
    "poly-negative-exponent": (["verify", "sz", "--poly", "1 * x1^-1"], None),
    "set-not-numbers": (["verify", "sz", "--poly", "1 * x1", "--set", "a,b"], None),
    "tau-not-a-number": (["pipeline", "--config", CFG, "--tau", "abc"], None),
    "tau-not-a-number-no-joints": (["pipeline", "--config", CFG, "--tau", "abc"], _no_joints),
    "tau-negative": (["pipeline", "--config", CFG, "--tau", "-1"], None),
    "tau-negative-balance": (["balance", "--config", CFG, "--tau=-1/2"], None),
    "set-zero-denominator": (["verify", "sz", "--poly", "1 * x1", "--set", "1/0,2"], None),
    "tau-zero-denominator": (["pipeline", "--config", CFG, "--tau", "1/0"], None),
    "joint-zero-denominator": (["pipeline", "--config", CFG], _json_entry("joint", "1/0")),
    "flat-point-zero-denominator": (["pipeline", "--config", CFG], _json_entry("point", "-3/0")),
    "set-repeats-a-value": (["verify", "sz", "--poly", "1 * x1", "--set", "0,0"], None),
    "set-repeats-in-the-field": (["verify", "sz", "--poly", "1 * x1", "--set", "0,101",
                                  "--field-p", "101"], None),
    "field-not-prime": (["verify", "sz", "--poly", "1 * x1", "--field-p", "4"], None),
    "field-p-empty": (["verify", "sz", "--poly", "1 * x1", "--field-p", ""], None),
    "config-without-families": (["pipeline", "--config", CFG], _drop("families")),
    "config-without-joints": (["pipeline", "--config", CFG], _drop("joints")),
    "config-not-json": (["pipeline", "--config", CFG], lambda text: text[:-3]),
    "config-dependent-directions": (["pipeline", "--config", CFG], _zero_direction),
    "config-sum-below-ambient": (["pipeline", "--config", CFG], _set_m(2)),
    "config-sum-above-ambient": (["pipeline", "--config", CFG], _set_m(4)),
    "field-kind-unknown": (["pipeline", "--config", CFG], _set_field({"kind": "prme", "p": 7})),
    "field-kind-missing": (["pipeline", "--config", CFG], _set_field({"p": 7})),
    "field-rational-with-modulus": (["pipeline", "--config", CFG],
                                    _set_field({"kind": "rational", "p": 7})),
    "field-not-an-object": (["pipeline", "--config", CFG], _set_field("rational")),
    "families-object": (["pipeline", "--config", CFG], _retype("families", make=lambda v: {})),
    "families-empty": (["pipeline", "--config", CFG], _retype("families", make=lambda v: [])),
    "members-object": (["pipeline", "--config", CFG], _retype("families", 0, "members")),
    "joints-object": (["pipeline", "--config", CFG], _retype("joints")),
    "joint-object": (["pipeline", "--config", CFG], _retype("joints", 0)),
    "joint-string": (["pipeline", "--config", CFG], _retype("joints", 0, make=lambda v: "000")),
    "flat-point-object": (["pipeline", "--config", CFG], _retype(*MEMBER, "point")),
    "flat-directions-object": (["pipeline", "--config", CFG], _retype(*MEMBER, "directions")),
    "flat-direction-object": (["pipeline", "--config", CFG], _retype(*MEMBER, "directions", 0)),
    "flat-direction-string": (["pipeline", "--config", CFG],
                              _retype(*MEMBER, "directions", 0, make=lambda v: "100")),
    "member-label-array": (["pipeline", "--config", CFG],
                           _retype(*MEMBER, "label", make=lambda v: [1, 2])),
    "graph-frame-matrix-object": (["pipeline", "--config", CFG],
                                  _plane_curve(kind="graph",
                                               frame_matrix={"0": ["1", "0"], "1": ["0", "1"]})),
    "graph-frame-row-object": (["pipeline", "--config", CFG],
                               _plane_curve(kind="graph",
                                            frame_matrix=[{"1": "0", "0": "1"}, ["0", "1"]])),
    "graph-frame-translation-object": (["pipeline", "--config", CFG],
                                       _plane_curve(kind="graph",
                                                    frame_translation={"0": "0", "1": "0"})),
    "joint-float": (["pipeline", "--config", CFG], _json_entry("joint", 0.25)),
    "flat-point-float": (["pipeline", "--config", CFG], _json_entry("point", 0.5)),
    "joint-bool": (["pipeline", "--config", CFG], _json_entry("joint", False)),
    "flat-point-bool": (["pipeline", "--config", CFG], _json_entry("point", True)),
    "flat-direction-bool": (["verify", "bound", "--config", CFG], _json_entry("direction", True)),
    "flat-degree-0": (["verify", "bound", "--config", CFG], _set_key("member", "degree", 0)),
    "flat-degree-4": (["verify", "bound", "--config", CFG], _set_key("member", "degree", 4)),
    "flat-point-short": (["pipeline", "--config", CFG], _resize("point", 2)),
    "flat-point-long": (["pipeline", "--config", CFG], _resize("point", 5)),
    "flat-direction-short": (["pipeline", "--config", CFG], _resize("direction", 2)),
    "flat-direction-long": (["pipeline", "--config", CFG], _resize("direction", 4)),
    "joint-too-short": (["pipeline", "--config", CFG], _resize("joint", 2)),
    "joint-too-long": (["pipeline", "--config", CFG], _resize("joint", 4)),
    "hypersurface-point-long": (["pipeline", "--config", CFG],
                                _plane_curve(kind="hypersurface", point=["0", "0", "0"])),
    "hypersurface-direction-long": (["pipeline", "--config", CFG],
                                    _plane_curve(kind="hypersurface",
                                                 directions=[["1", "0", "0"], ["0", "1", "0"]])),
    "hypersurface-no-equation": (["pipeline", "--config", CFG],
                                 _plane_curve(kind="hypersurface", equations=[])),
    "hypersurface-two-equations": (["pipeline", "--config", CFG],
                                   _plane_curve(kind="hypersurface",
                                                equations=["1 * x1^2 + 1 * x2^2 + -1 * x2",
                                                           "1 * x1"])),
    "hypersurface-equation-zero": (["pipeline", "--config", CFG],
                                   _plane_curve(kind="hypersurface", equations=["0"])),
    "hypersurface-equation-constant": (["pipeline", "--config", CFG],
                                       _plane_curve(kind="hypersurface", equations=["3"])),
    "hypersurface-equation-not-a-string": (["pipeline", "--config", CFG],
                                           _plane_curve(kind="hypersurface", equations=[5])),
    "graph-equation-not-a-string": (["pipeline", "--config", CFG],
                                    _plane_curve(kind="graph", equations=[5])),
    "graph-equations-not-a-list": (["pipeline", "--config", CFG],
                                   _plane_curve(kind="graph", equations="1 * x1^2")),
    "hypersurface-circle-degree-0": (["verify", "bound", "--config", CFG],
                                     _plane_curve(kind="hypersurface", degree=0)),
    "hypersurface-circle-degree-5": (["verify", "bound", "--config", CFG],
                                     _plane_curve(kind="hypersurface", degree=5)),
    "graph-parabola-degree-0": (["pipeline", "--config", CFG],
                                _plane_curve(kind="graph", degree=0)),
    "graph-parabola-degree-minus-3": (["pipeline", "--config", CFG],
                                      _plane_curve(kind="graph", degree=-3)),
    "graph-parabola-degree-1": (["pipeline", "--config", CFG],
                                _plane_curve(kind="graph", degree=1)),
    "graph-parabola-degree-3": (["pipeline", "--config", CFG],
                                _plane_curve(kind="graph", degree=3)),
    "graph-surface-degree-missing": (["verify", "bound", "--config", CFG],
                                     _paraboloid(degree=None)),
    # e = 2 and k = 2: the degree is at most e^k = 4
    "graph-surface-degree-5": (["verify", "bound", "--config", CFG], _paraboloid(degree=5)),
    "family-m-negative-no-members": (["pipeline", "--config", CFG, "--n", "2"],
                                     _empty_family(m=-1)),
    "family-m-zero-no-members": (["pipeline", "--config", CFG, "--n", "2"], _empty_family(m=0)),
    "family-k-zero-no-members": (["pipeline", "--config", CFG, "--n", "2"], _empty_family(k=0)),
    "field-p-float": (["pipeline", "--config", CFG], _set_field({"kind": "prime", "p": 101.9})),
    "family-k-float": (["pipeline", "--config", CFG], _set_key("family", "k", 1.5)),
    "family-m-float": (["pipeline", "--config", CFG], _set_m(3.0)),
    "member-dim-float": (["pipeline", "--config", CFG], _set_key("member", "dim", 1.2)),
    "member-ambient-float": (["pipeline", "--config", CFG], _set_key("member", "ambient", 3.0)),
    "member-degree-float": (["pipeline", "--config", CFG], _set_key("member", "degree", 1.0)),
    "seed-float": (["pipeline", "--config", CFG], _set_key("config", "seed", 0.5)),
    "seed-bool": (["pipeline", "--config", CFG], _set_key("config", "seed", True)),
    "graph-frame-3x3-in-plane": (["pipeline", "--config", CFG],
                                 _plane_curve(kind="graph",
                                              frame_matrix=[["1", "0", "0"], ["0", "1", "0"],
                                                            ["0", "0", "1"]],
                                              frame_translation=["0", "0", "0"])),
    "field-p-pipeline": (["pipeline", "--config", CFG, "--field-p", "9"], None),
    "field-p-balance": (["balance", "--config", CFG, "--field-p", "101"], None),
    "field-p-verify-rank": (["verify", "rank", "--config", CFG, "--field-p", "101"], None),
    "witness-joint-out-of-range": (["verify", "witness", "--config", CFG, "--joint", "99",
                                    "--poly", "1 * x1"], None),
    "witness-joint-negative": (["verify", "witness", "--config", CFG, "--joint", "-1",
                                "--poly", "1 * x1"], None),
    "witness-zero-poly": (["verify", "witness", "--config", CFG, "--poly", "0"], None),
    "sz-without-poly": (["verify", "sz"], None),
    "witness-without-poly": (["verify", "witness", "--config", CFG], None),
    "pipeline-without-config": (["pipeline"], None),
    "balance-without-config": (["balance"], None),
    "rank-without-config": (["verify", "rank"], None),
    "n-negative": (["pipeline", "--config", CFG, "--n", "-1"], None),
    "n-zero-pipeline": (["pipeline", "--config", CFG, "--n", "0"], None),
    "n-zero-balance": (["balance", "--config", CFG, "--n", "0"], None),
    "n-zero-verify": (["verify", "rank", "--config", CFG, "--n", "0"], None),
    "cap-negative-balance": (["balance", "--config", CFG, "--cap", "-3"], None),
    "cap-zero-pipeline": (["pipeline", "--config", CFG, "--cap", "0"], None),
    "d-zero-sz": (["verify", "sz", "--poly", "1", "--d", "0"], None),
    "d-zero-generate": (["generate", "--kind", "line", "--d", "0"], None),
    "k-zero-generate": (["generate", "--kind", "coordinate-flats", "--k", "0"], None),
    "k-negative-generate": (["generate", "--kind", "coordinate-flats", "--k", "-2"], None),
    "t-negative-generate": (["generate", "--kind", "line", "--t", "-1"], None),
    "h-zero-generate": (["generate", "--kind", "generic-hyperplanes", "--h", "0"], None),
    "count-zero-generate": (["generate", "--kind", "random-flats", "--count", "0"], None),
    "seed-pipeline": (["pipeline", "--config", CFG, "--seed", "1"], None),
    "seed-balance": (["balance", "--config", CFG, "--seed", "1"], None),
    "cap-verify-rank": (["verify", "rank", "--config", CFG, "--cap", "3"], None),
    "tau-verify-bound": (["verify", "bound", "--config", CFG, "--tau", "1"], None),
    "m-generate": (["generate", "--kind", "grid", "--m", "3"], None),
    "n-generate": (["generate", "--kind", "grid", "--n", "3"], None),
}


def _run_malformed(tmp_path, capsys, case) -> tuple:
    """(exit code, stderr) of the MALFORMED case, its config edited."""
    argv, edit = MALFORMED[case]
    if CFG in argv:
        cfg_path = gen(tmp_path, "a")
        if edit:
            cfg_path.write_text(edit(cfg_path.read_text()))
        argv = [str(cfg_path) if a == CFG else a for a in argv]
    capsys.readouterr()
    code = main([*argv, "--out-dir", str(tmp_path / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_input_error(tmp_path, capsys, case):
    code, err = _run_malformed(tmp_path, capsys, case)
    assert code == EXIT_USAGE
    assert any(line.startswith("error: ") for line in err.splitlines()), err


@pytest.mark.parametrize("case", sorted(c for c in MALFORMED if c.endswith("zero-denominator")))
def test_a_zero_denominator_is_named(tmp_path, capsys, case):
    # the message names the value and says what is wrong with it, in the
    # words of the input, not of Python's Fraction
    code, err = _run_malformed(tmp_path, capsys, case)
    assert code == EXIT_USAGE
    value = "'-3/0'" if case.startswith("flat-point") else "'1/0'"
    assert "zero denominator" in err and value in err and "Fraction" not in err, err


@pytest.mark.parametrize("case", ["joint-too-short", "joint-too-long"])
def test_a_joint_of_the_wrong_length_is_named(tmp_path, capsys, case):
    # a carrier's equations read a point entry by entry and would take a
    # short one, so detection checks every candidate's length first
    code, err = _run_malformed(tmp_path, capsys, case)
    assert code == EXIT_USAGE
    assert "error: point dimension mismatch" in err.splitlines(), err


# the options each subcommand reads; a flag no command reads is dead
FLAGS = {
    "generate": ["--seed", "--out-dir", "--field-p", "--kind", "--d", "--h", "--t", "--k",
                 "--count"],
    "pipeline": ["--config", "--n", "--tau", "--cap", "--out-dir"],
    "balance": ["--config", "--n", "--tau", "--cap", "--out-dir"],
    "verify": ["--config", "--n", "--out-dir", "--field-p", "--poly", "--set", "--d", "--joint"],
}


def test_each_command_takes_only_the_flags_it_reads():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: sorted(flag for a in p._actions for flag in a.option_strings
                     if flag not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    assert got == {name: sorted(flags) for name, flags in FLAGS.items()}


def test_a_missing_degree_is_the_members_own():
    # the circle's is its equation's degree, the line's 1
    obj = json.loads(_plane_curve(kind="hypersurface")(""))
    declared = JointsConfiguration.from_json(obj)
    for member in obj["families"][0]["members"]:
        del member["degree"]
    derived = JointsConfiguration.from_json(obj)
    assert [V.degree for V in derived.families[0].members] == [2, 1]
    assert derived.families[0].members == declared.families[0].members


def _bound_of(tmp_path, name, obj):
    """(exit code, verify-bound.json) of ``verify bound`` on a config."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    code = main(["verify", "bound", "--config", str(path), "--out-dir", str(tmp_path / name)])
    return code, json.loads((tmp_path / name / "verify-bound.json").read_text())


def test_a_missing_curve_degree_is_the_graphs_own(tmp_path):
    # a graph of dim 1 has degree max(1, max_j deg f_j): the parabola's is 2
    obj = json.loads(_plane_curve(kind="graph")(""))
    code, declared = _bound_of(tmp_path, "declared", obj)
    del obj["families"][0]["members"][0]["degree"]
    assert _bound_of(tmp_path, "derived", obj) == (code, {**declared, "elapsed_s": ANY})
    assert code == EXIT_OK and declared["degree_product"] == (2 + 1) ** 2


def test_a_surface_graph_declares_its_degree(tmp_path):
    # for dim >= 2 the polynomials give only a lower bound on the degree;
    # declared, the same config is well formed
    code, report = _bound_of(tmp_path, "declared", json.loads(_paraboloid()("")))
    assert code == EXIT_OK and report["degree_product"] == 2 * 1
