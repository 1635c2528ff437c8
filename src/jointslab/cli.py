"""Command-line front end: generate, pipeline, balance, verify.

Every run writes a manifest recording the command, parameters, outputs
and elapsed time; identical inputs reproduce identical output files, but
the manifest and ``verify-*.json`` also hold the elapsed time.  Exit codes:
0 all checks pass, 1 a check failed, 2 usage or input error, 3 a cap was
hit (balance or ledger saturation guard).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .balance import balance, build_all_ledgers
from .basis import Handicap, ledgers_summary, ledgers_to_csv
from .config import JointsConfiguration, connected_components, generate
from .errors import JointslabError, MalformedInput
from .field import DEFAULT_PRIME, FieldSpec
from .poly import parse_poly
from .verify import (
    bound_report,
    hasse_vanishing_witness,
    parameter_count_check,
    schwartz_zippel_mult,
    vanishing_rank_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP_HIT = 3


def _parse(flag: str, parse, text):
    """parse(text), a value that does not parse, or has a zero
    denominator, being an input error."""
    try:
        return parse(text)
    except ZeroDivisionError as exc:
        raise MalformedInput(f"{flag} {text!r}: zero denominator") from exc
    except ValueError as exc:
        raise MalformedInput(f"{flag} {text!r}: {exc}") from exc


def _field_from_args(args) -> FieldSpec:
    if args.field_p is not None:
        if args.field_p == "rational":
            return FieldSpec("rational")
        return _parse("--field-p", lambda s: FieldSpec("prime", int(s)), args.field_p)
    return FieldSpec("prime", DEFAULT_PRIME)


def _degree_bound(args, cfg) -> int:
    """--n, or by default 6 in ambient 3 and 3 otherwise."""
    if args.n is not None:
        return args.n
    return 6 if cfg.ambient == 3 else 3


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out_dir", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _manifest(args, command: str, extra: dict, outputs: list, t0: float) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": getattr(args, "config", None),
        "n": getattr(args, "n", None),
        "seed": getattr(args, "seed", None),
        "elapsed_s": round(time.time() - t0, 3),
        "outputs": outputs,
        **extra,
    }


def _load_config(args) -> JointsConfiguration:
    with open(args.config) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise MalformedInput(f"{args.config}: not JSON: {exc}") from exc
    return JointsConfiguration.from_json(obj)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    t0 = time.time()
    F = _field_from_args(args)
    cfg = generate(
        args.kind,
        F,
        seed=args.seed,
        h=args.h,
        t=args.t,
        d=args.d,
        k=args.k,
        count=args.count,
    )
    out = _out_dir(args)
    cfg_path = out / "config.json"
    _write_json(cfg_path, cfg.to_json())
    _write_json(
        out / "manifest.json",
        _manifest(args, "generate", {"kind": args.kind, "field": F.to_json()}, [str(cfg_path)], t0),
    )
    print(f"wrote {cfg_path}: {len(cfg.joints)} joints, "
          f"{sum(len(f.members) for f in cfg.families)} member varieties")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    t0 = time.time()
    cfg = _load_config(args)
    n = _degree_bound(args, cfg)
    out = _out_dir(args)
    comps = connected_components(cfg)
    all_pass = True
    cap_hit = False
    reports = []
    outputs = []
    for ci, comp in enumerate(comps):
        st = balance(comp, n, tau=args.tau, cap=args.cap)
        if st.status != "balanced":
            cap_hit = True
        ledgers = st.ledgers
        if any(led.cap_hit for led in ledgers.values()):
            cap_hit = True
        rank = vanishing_rank_check(comp, ledgers, n)
        count = parameter_count_check(comp, ledgers, n)
        bound = bound_report(comp)
        ok = rank["pass"] and count["pass"] and bound.pass_a and bound.pass_b
        all_pass = all_pass and ok
        reports.append(
            {
                "component": ci,
                "joints": len(comp.joints),
                "balance_status": st.status,
                "alpha": {str(j): st.alpha.of(j) for j in range(len(comp.joints))},
                "rank": rank,
                "count": count,
                "bound": bound.to_json(),
                "pass": ok,
            }
        )
        csv_path, summary_path = out / f"ledger-{ci}.csv", out / f"ledger-{ci}.json"
        csv_path.write_text(ledgers_to_csv(list(ledgers.values())))
        _write_json(summary_path, ledgers_summary(list(ledgers.values())))
        outputs += [str(csv_path), str(summary_path)]
    rep_path = out / "pipeline.json"
    _write_json(rep_path, {"n": n, "components": reports, "pass": all_pass})
    _write_json(
        out / "manifest.json",
        _manifest(args, "pipeline", {"components": len(comps)}, [str(rep_path), *outputs], t0),
    )
    print(f"pipeline: {len(comps)} component(s), pass={all_pass}")
    if cap_hit:
        return EXIT_CAP_HIT
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_balance(args) -> int:
    t0 = time.time()
    cfg = _load_config(args)
    n = _degree_bound(args, cfg)
    out = _out_dir(args)
    st = balance(cfg, n, tau=args.tau, cap=args.cap)
    lines = ["iteration,t,min_W,max_W,changed"]
    for row in st.log:
        lines.append(
            f"{row['iteration']},{row['t']},{row['min_W']},{row['max_W']},{int(row['changed'])}"
        )
    csv_path = out / "balance.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    alpha_path = out / "alpha.json"
    _write_json(alpha_path, {"status": st.status, "iterations": st.iteration,
                             "alpha": {str(j): st.alpha.of(j) for j in st.alpha.preassigned}})
    _write_json(
        out / "manifest.json",
        _manifest(args, "balance", {"status": st.status}, [str(alpha_path), str(csv_path)], t0),
    )
    print(f"balance: {st.status} after {st.iteration} iteration(s)")
    return EXIT_OK if st.status == "balanced" else EXIT_CAP_HIT


def cmd_verify(args) -> int:
    t0 = time.time()
    out = _out_dir(args)
    result: dict
    if args.check == "sz":
        F = _field_from_args(args)
        g = parse_poly(args.poly, F, 2 if args.d is None else args.d)
        A = [_parse("--set", F.of, x) for x in args.set.split(",")]
        r = schwartz_zippel_mult(g, A)
        result = {"check": "sz", **r}
    else:
        cfg = _load_config(args)
        n = _degree_bound(args, cfg)
        if args.check == "bound":
            br = bound_report(cfg)
            result = {"check": "bound", **br.to_json()}
        elif args.check == "witness":
            if not 0 <= args.joint < len(cfg.joints):
                raise MalformedInput(f"--joint {args.joint}: there are {len(cfg.joints)} joints")
            g = parse_poly(args.poly, cfg.field, cfg.ambient)
            charts = cfg.designated_charts(args.joint)
            w = hasse_vanishing_witness(cfg.joints[args.joint], charts, g)
            result = {
                "check": "witness",
                "orders": w["orders"],
                "value": str(w["value"]),
                "total_order": w["total_order"],
                "pass": w["pass"],
            }
        else:
            h = Handicap.zero(range(len(cfg.joints)))
            ledgers = build_all_ledgers(cfg, h, n)
            if args.check == "rank":
                result = {"check": "rank", **vanishing_rank_check(cfg, ledgers, n)}
            else:
                result = {"check": "count", **parameter_count_check(cfg, ledgers, n)}
    result["elapsed_s"] = round(time.time() - t0, 3)
    path = out / f"verify-{args.check}.json"
    _write_json(path, result)
    _write_json(out / "manifest.json", _manifest(args, f"verify-{args.check}", {}, [str(path)], t0))
    print(json.dumps(result))
    return EXIT_OK if result.get("pass") else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="jointslab",
                                 description="exact joints-configuration experiments")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    shared = {
        "--config": {"help": "configuration JSON path"},
        "--n": {"type": int, "default": None, "help": "degree bound"},
        "--tau": {"default": None, "help": "balance gap threshold (rational)"},
        "--cap": {"type": int, "default": 10**4, "help": "balance rebuild cap"},
        "--seed": {"type": int, "default": 0},
        "--out-dir": {"default": "."},
        "--field-p": {"default": None,
                      "help": "prime modulus, or 'rational' (generate, verify sz)"},
    }

    def add_shared(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    g = sub.add_parser("generate", help="write an example configuration")
    add_shared(g, "--seed", "--out-dir", "--field-p")
    g.add_argument("--kind", required=True,
                   choices=["generic-hyperplanes", "coordinate-flats", "grid",
                            "line", "random-flats"])
    g.add_argument("--d", type=int, default=None)
    g.add_argument("--h", type=int, default=5)
    g.add_argument("--t", type=int, default=3)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--count", type=int, default=4)
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("pipeline", help="decompose, balance, verify, bound")
    add_shared(p, "--config", "--n", "--tau", "--cap", "--out-dir")
    p.set_defaults(func=cmd_pipeline)

    b = sub.add_parser("balance", help="run the handicap balancer")
    add_shared(b, "--config", "--n", "--tau", "--cap", "--out-dir")
    b.set_defaults(func=cmd_balance)

    v = sub.add_parser("verify", help="run one verification check")
    v.add_argument("check", choices=["rank", "count", "witness", "sz", "bound"])
    add_shared(v, "--config", "--n", "--out-dir", "--field-p")
    v.add_argument("--poly", default=None, help="polynomial text (witness, sz)")
    v.add_argument("--set", default="0,1", help="comma-separated sample set (sz)")
    v.add_argument("--d", dest="d", type=int, default=None, help="variable count (sz)")
    v.add_argument("--joint", type=int, default=0, help="joint index (witness)")
    v.set_defaults(func=cmd_verify)
    return ap


def _check_flags(args) -> None:
    """Raise MalformedInput for a missing required flag, a --field-p on a
    check that reads the field from its config, a --n, --d, --cap, --k,
    --h, --t or --count below 1, or a --tau that is not a nonnegative
    rational; parse --tau in place."""
    command = args.cmd if args.cmd != "verify" else f"verify {args.check}"
    if args.cmd != "generate" and command != "verify sz" and args.config is None:
        raise MalformedInput(f"{command} requires --config")
    if args.cmd == "verify" and args.check != "sz" and args.field_p is not None:
        raise MalformedInput(f"{command} takes its field from --config, not --field-p")
    if command in ("verify sz", "verify witness") and args.poly is None:
        raise MalformedInput(f"{command} requires --poly")
    for flag in ("n", "d", "cap", "k", "h", "t", "count"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise MalformedInput(f"--{flag} must be at least 1")
    if getattr(args, "tau", None) is not None:
        args.tau = _parse("--tau", Fraction, args.tau)
        if args.tau < 0:
            raise MalformedInput("--tau must not be negative")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call of the process and
    reused: parsing keeps no state in it, and each call gets a fresh
    namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args, unknown = _parser().parse_known_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        if unknown:
            raise MalformedInput(f"unrecognized arguments: {' '.join(unknown)}")
        _check_flags(args)
        return args.func(args)
    except JointslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
