"""End-to-end command-line behavior: exit codes, manifests, determinism."""

import json

import pytest

from jointslab.cli import (
    EXIT_CAP_HIT,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


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


def test_verify_sz_without_config(tmp_path):
    out = tmp_path / "sz"
    code = main(["verify", "sz", "--poly", "1 * x1 x2", "--d", "2",
                 "--set", "0,1,2", "--out-dir", str(out)])
    assert code == EXIT_OK
    got = json.loads((out / "verify-sz.json").read_text())
    assert got["lhs"] == got["rhs"] == 6


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


def _drop(key):
    def edit(text):
        obj = json.loads(text)
        del obj[key]
        return json.dumps(obj)
    return edit


# argv with CFG standing for a generated config, and an edit of its text
CFG = "<config>"
MALFORMED = {
    "poly-juxtaposition": (["verify", "sz", "--poly", "2 x1"], None),
    "poly-minus-operator": (["verify", "sz", "--poly", "1 * x1 - 1"], None),
    "poly-unknown-name": (["verify", "sz", "--poly", "1 * y1"], None),
    "poly-negative-exponent": (["verify", "sz", "--poly", "1 * x1^-1"], None),
    "set-not-numbers": (["verify", "sz", "--poly", "1 * x1", "--set", "a,b"], None),
    "tau-not-a-number": (["pipeline", "--config", CFG, "--tau", "abc"], None),
    "field-not-prime": (["verify", "sz", "--poly", "1 * x1", "--field-p", "4"], None),
    "config-without-families": (["pipeline", "--config", CFG], _drop("families")),
    "config-without-joints": (["pipeline", "--config", CFG], _drop("joints")),
    "config-not-json": (["pipeline", "--config", CFG], lambda text: text[:-3]),
    "witness-joint-out-of-range": (["verify", "witness", "--config", CFG, "--joint", "99",
                                    "--poly", "1 * x1"], None),
    "witness-joint-negative": (["verify", "witness", "--config", CFG, "--joint", "-1",
                                "--poly", "1 * x1"], None),
    "n-negative": (["pipeline", "--config", CFG, "--n", "-1"], None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_input_error(tmp_path, capsys, case):
    argv, edit = MALFORMED[case]
    if CFG in argv:
        cfg_path = gen(tmp_path, "a")
        if edit:
            cfg_path.write_text(edit(cfg_path.read_text()))
        argv = [str(cfg_path) if a == CFG else a for a in argv]
    capsys.readouterr()
    code = main([*argv, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert any(line.startswith("error: ") for line in err.splitlines()), err
