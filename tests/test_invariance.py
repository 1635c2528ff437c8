"""Every verdict is coordinate-free, so an affine change of coordinates
moves none of them.

A configuration is mapped by x -> A x + b through its JSON form only,
with no library code: each flat's and hypersurface's point goes to
A p + b and each direction u to A u (a hypersurface's equation is in its
carrier flat's coordinates, so it does not change); a graph's frame
y = M x + c goes to M A^-1 and c - M A^-1 b; every candidate joint goes
to A p + b.  The mapped run must give the same exit code, the same
verdict projection of every component (``bench/verdicts.py``'s
``project``: balance status, alpha, rank, count, bound and pass) and the
same ledger totals per (member, joint) in every ``ledger-*.json``.  The
gammas a ledger picks, the rank check's ``rows`` and the chart scales
depend on the coordinates, so ``ledger-*.csv`` and those are not
compared.

Each configuration is read under two maps with small integer entries,
drawn per configuration, and one coordinate permutation.  Over F_p the
map is read mod p; A is drawn with det A a unit, so A^-1 is the
reduction of the rational inverse.

No such map moves a hypersurface's carrier coordinates, in which its
equation is written.  So each hypersurface's carrier directions D are
also replaced by D G, and its equation E by E o G (``oracles.pullback``),
for a small integer G with det G = +-1: the same point sets, written in
other carrier coordinates, with the same verdicts and ledger totals.
"""

import json
import random
from fractions import Fraction

import pytest

from jointslab.cli import main
from jointslab.field import FieldSpec
from jointslab.poly import AffineMap, format_poly, parse_poly

from bench_loader import verdicts
from curved import FQ, circle_and_lines, curved_plane_config, parabola_and_circle
from oracles import pullback


CURVED = {make.__name__: make for make in (circle_and_lines, parabola_and_circle,
                                           curved_plane_config)}
NAMES = [f"{name}-{i}" for name in verdicts.WORKLOADS for i in range(4)] + list(CURVED)


def config(name: str) -> tuple:
    """(JSON config, pipeline arguments) of pool config i of a benchmark
    workload, named "<workload>-<i>", or of a curved test config."""
    if name in CURVED:
        return CURVED[name](FQ).to_json(), ("--n", "3")
    workload, _, index = name.rpartition("-")
    w = verdicts.WORKLOADS[workload]
    return w.config(int(index)), w.args


def _inverse(A) -> list | None:
    """A^-1 over Q by Gauss-Jordan elimination, or None if A is singular."""
    n = len(A)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(A)]
    for c in range(n):
        k = next((i for i in range(c, n) if rows[i][c]), None)
        if k is None:
            return None
        rows[c], rows[k] = rows[k], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [row[n:] for row in rows]


def _det_is_unit(A, p) -> bool:
    """det A is nonzero over Q, and mod p over F_p."""
    inv = _inverse(A)
    if inv is None:
        return False
    denominators = [x.denominator for row in inv for x in row]
    return p is None or all(d % p for d in denominators)


def draw_maps(rng: random.Random, d: int, p) -> list:
    """Two maps (A, b) with entries in [-2, 2] and [-3, 3], and one
    coordinate permutation, each invertible over the field."""
    maps = []
    while len(maps) < 2:
        A = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        if _det_is_unit(A, p):
            maps.append((A, [rng.randint(-3, 3) for _ in range(d)]))
    order = list(range(d))
    while order == sorted(order):
        rng.shuffle(order)
    maps.append(([[int(j == order[i]) for j in range(d)] for i in range(d)], [0] * d))
    return maps


def mapped(cfg: dict, A, b) -> dict:
    """The configuration moved by x -> A x + b."""
    field = cfg["field"]
    p = field.get("p") if field["kind"] == "prime" else None

    def text(x: Fraction) -> str:
        return str(x) if p is None else str(x.numerator * pow(x.denominator, -1, p) % p)

    def linear(M, v):
        return [sum((Fraction(m) * Fraction(x) for m, x in zip(row, v)), Fraction(0))
                for row in M]

    def point(v):
        return [text(x + c) for x, c in zip(linear(A, v), b)]

    inv_columns = list(zip(*_inverse(A)))
    out = json.loads(json.dumps(cfg))
    for family in out["families"]:
        for V in family["members"]:
            if V["kind"] == "graph":
                M = [linear(inv_columns, row) for row in V["frame_matrix"]]
                shift = linear(M, b)
                V["frame_translation"] = [text(Fraction(c) - s)
                                          for c, s in zip(V["frame_translation"], shift)]
                V["frame_matrix"] = [[text(x) for x in row] for row in M]
            else:
                V["point"] = point(V["point"])
                V["directions"] = [[text(x) for x in linear(A, u)] for u in V["directions"]]
    out["joints"] = [point(q) for q in out["joints"]]
    return out


def invariants(tmp_path, tag, cfg, args) -> tuple:
    """(exit code, verdict projections, ledger totals) of one pipeline run."""
    path, out = tmp_path / f"{tag}.json", tmp_path / tag
    path.write_text(json.dumps(cfg))
    code = verdicts.pipeline(main, path, out, args)
    components = None
    if (out / "pipeline.json").is_file():
        report = json.loads((out / "pipeline.json").read_text())
        components = [verdicts.project(c) for c in report["components"]]
    ledgers = {f.name: json.loads(f.read_text()) for f in sorted(out.glob("ledger-*.json"))}
    return code, components, ledgers


@pytest.mark.parametrize("name", NAMES)
def test_affine_maps_move_no_verdict(tmp_path, name):
    cfg, args = config(name)
    d = len(cfg["joints"][0])
    p = cfg["field"].get("p") if cfg["field"]["kind"] == "prime" else None
    here = invariants(tmp_path, "here", cfg, args)
    assert here[1] and here[2]
    for i, (A, b) in enumerate(draw_maps(random.Random(name), d, p)):
        assert invariants(tmp_path, f"map-{i}", mapped(cfg, A, b), args) == here, (A, b)


def unimodular(rng: random.Random, c: int) -> list:
    """A c x c integer matrix with det +-1: the identity with its rows
    shuffled, then three times a row plus a small multiple of another."""
    G = [[int(i == j) for j in range(c)] for i in range(c)]
    rng.shuffle(G)
    for _ in range(3):
        i, j = rng.sample(range(c), 2)
        f = rng.choice((-2, -1, 1, 2))
        G[i] = [a + f * b for a, b in zip(G[i], G[j])]
    return G


def recoordinated(cfg: dict, rng: random.Random) -> dict:
    """The configuration with each hypersurface's carrier directions D
    replaced by D G and its equation E by E o G, G drawn per member by
    ``unimodular``: point + D u = point + (D G) u' for u = G u', where E
    vanishes iff E o G does at u'."""
    F = FieldSpec.from_json(cfg["field"])
    out = json.loads(json.dumps(cfg))
    for family in out["families"]:
        for V in family["members"]:
            if V["kind"] != "hypersurface":
                continue
            D = [[F.of(x) for x in u] for u in V["directions"]]
            G = unimodular(rng, len(D))
            V["directions"] = [[str(F.of(sum(g[j] * u[i] for g, u in zip(G, D))))
                                for i in range(len(D[0]))] for j in range(len(D))]
            E = parse_poly(V["equations"][0], F, len(D))
            V["equations"] = [format_poly(pullback(E, AffineMap(F, G, [0] * len(D))))]
    return out


@pytest.mark.parametrize("name", [f"curved-q-{i}" for i in range(4)] + list(CURVED))
def test_hypersurface_carrier_coordinates_move_no_verdict(tmp_path, name):
    cfg, args = config(name)
    here = invariants(tmp_path, "here", cfg, args)
    rng = random.Random(name)
    for i in range(2):
        moved = recoordinated(cfg, rng)
        assert moved["families"] != cfg["families"]
        assert invariants(tmp_path, f"moved-{i}", moved, args) == here
