"""Seeded configuration files for the benchmark workloads.

Stdlib only, and independent of the jointslab package: the configs are
written in the documented JSON format from the workload's own sampling
and exact arithmetic, so a change inside the library can never change
the inputs it is measured on.  Every workload has a fixed pool of
configs (index -> config); golden verdicts are recorded per pool index.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

PRIME = 2147483629  # jointslab's DEFAULT_PRIME
POOL_SIZE = 64


# ---------------------------------------------------------------------------
# Exact linear algebra over F_p and Q (row reduction only)
# ---------------------------------------------------------------------------


def _rref(rows, div, norm=lambda x: x):
    """Reduced row echelon form; ``div(a, b)`` is field division and
    ``norm`` reduces an element to canonical form.  Returns (rows, pivot
    columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        lead = rows[r][c]
        rows[r] = [div(x, lead) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [norm(x - f * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _mod_div(a, b):
    return a * pow(b, -1, PRIME) % PRIME


def _affine_solution_mod_p(A, b):
    """Point and direction basis of {x : A x = b} over F_p, or None when
    the rows of A are dependent."""
    n = len(A[0])
    rows, piv = _rref([[x % PRIME for x in row] + [y % PRIME] for row, y in zip(A, b)],
                      _mod_div, lambda x: x % PRIME)
    if len(piv) != len(A) or n in piv:
        return None
    point = [0] * n
    for row, c in zip(rows, piv):
        point[c] = row[n]
    dirs = []
    for free in (c for c in range(n) if c not in piv):
        v = [0] * n
        v[free] = 1
        for row, c in zip(rows, piv):
            v[c] = -row[free] % PRIME
        dirs.append(v)
    return point, dirs


# ---------------------------------------------------------------------------
# JSON pieces (the format JointsConfiguration.from_json reads)
# ---------------------------------------------------------------------------


def _flat(point, dirs, label="") -> dict:
    obj = {"kind": "flat", "dim": len(dirs), "ambient": len(point), "degree": 1,
           "point": [str(x) for x in point], "directions": [[str(x) for x in u] for u in dirs]}
    if label:
        obj["label"] = label
    return obj


def _config(field: dict, k: int, m: int, members: list, candidates: list, seed: int) -> dict:
    return {"field": field,
            "families": [{"k": k, "m": m, "members": members}],
            "joints": [[str(x) for x in p] for p in candidates],
            "seed": seed}


FP = {"kind": "prime", "p": PRIME}
FQ = {"kind": "rational"}


def _poly(terms: dict) -> str:
    """Polynomial text in x1, x2, ... from {exponents: coefficient}."""
    parts = []
    for e in sorted(terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
        c = terms[e]
        if not c:
            continue
        factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k]
        parts.append(f"{c} * " + " ".join(factors) if factors else f"{c}")
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def generic_hyperplanes(rng: random.Random, d: int, h: int) -> dict:
    """h random hyperplanes of F_p^d; each (d-2)-subset cuts a 2-flat (one
    family, k=2, m=3) and each d-subset a candidate joint."""
    cut = d - 2
    while True:
        planes = [([rng.randrange(PRIME) for _ in range(d)], rng.randrange(PRIME)) for _ in range(h)]
        members, candidates = [], []
        for subset in itertools.combinations(range(h), cut):
            got = _affine_solution_mod_p([planes[i][0] for i in subset], [planes[i][1] for i in subset])
            if got is None:
                break
            members.append(_flat(got[0], got[1], "-".join(map(str, subset))))
        else:
            for subset in itertools.combinations(range(h), d):
                got = _affine_solution_mod_p([planes[i][0] for i in subset], [planes[i][1] for i in subset])
                if got is None:
                    break
                candidates.append(got[0])
            else:
                return _config(FP, d - cut, 3, members, candidates, 0)


def _distinct(rng: random.Random, count: int, avoid=()) -> list:
    out = []
    while len(out) < count:
        v = rng.randrange(PRIME)
        if v not in out and v not in avoid:
            out.append(v)
    return out


def grid_line_composite(rng: random.Random, t: int) -> dict:
    """A t x t grid plus t^2 collinear points on a line clear of it, all on
    the whole plane of F_p^2: two clusters the handicap descent must move."""
    A = _distinct(rng, t)
    grid = [(a, b) for a in A for b in A]
    y0 = _distinct(rng, 1, avoid=A)[0]
    line = [(x, y0) for x in _distinct(rng, t * t)]
    plane = _flat((0, 0), ((1, 0), (0, 1)))
    return _config(FP, 2, 1, [plane], grid + line, 0)


def _collinear(p, q, r) -> bool:
    return (q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1]) * (r[0] - p[0])


def curved_plane(rng: random.Random, points: int, lines: int, parabolas: int, circles: int) -> dict:
    """Lines, parabolas (graphs) and circles (hypersurfaces) over Q, each
    through seeded integer points of [-9, 9]^2: one family, k=1, m=2."""
    pts = []
    while len(pts) < points:
        p = (rng.randint(-9, 9), rng.randint(-9, 9))
        if p not in pts:
            pts.append(p)
    members = []
    for a, b in rng.sample(list(itertools.combinations(pts, 2)), lines):
        members.append(_flat(a, [(b[0] - a[0], b[1] - a[1])]))
    made = 0
    while made < parabolas:
        tri = rng.sample(pts, 3)
        if len({x for x, _ in tri}) < 3:
            continue
        # y = c0 + c1 x + c2 x^2 through the three points
        rows, _ = _rref([[1, x, x * x, y] for x, y in tri], lambda a, b: Fraction(a) / b)
        c0, c1, c2 = (row[3] for row in rows)
        if not c2:
            continue
        # frame (x, y) -> (x, y - c1 x - c0) puts it in standard position
        members.append({"kind": "graph", "dim": 1, "ambient": 2, "degree": 2,
                        "frame_matrix": [["1", "0"], [str(-c1), "1"]],
                        "frame_translation": ["0", str(-c0)],
                        "equations": [_poly({(2,): c2})]})
        made += 1
    made = 0
    while made < circles:
        tri = rng.sample(pts, 3)
        if _collinear(*tri):
            continue
        # x^2 + y^2 + D x + E y + G = 0 through the three points
        rows, _ = _rref([[x, y, 1, -(x * x + y * y)] for x, y in tri], lambda a, b: Fraction(a) / b)
        D, E, G = (row[3] for row in rows)
        members.append({"kind": "hypersurface", "dim": 1, "ambient": 2, "degree": 2,
                        "point": ["0", "0"], "directions": [["1", "0"], ["0", "1"]],
                        "equations": [_poly({(2, 0): 1, (0, 2): 1, (1, 0): D, (0, 1): E, (0, 0): G})]})
        made += 1
    return _config(FQ, 1, 2, members, pts, 0)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: object  # rng -> config dict
    make_spare: object  # rng -> small config dict, for warm-up and set-up
    args: tuple  # extra `jointslab pipeline` arguments
    spare_args: tuple
    exit_code: int  # expected of every op, spare ones included
    d: int  # ambient dimension

    def config(self, index: int) -> dict:
        """Pool config ``index``; the same index always gives the same file."""
        return self.make(random.Random(f"{self.name}:{index}"))

    def spare(self, seed: int) -> dict:
        """A small config no timed op sees, for warm-up and set-up."""
        return self.make_spare(random.Random(f"{self.name}:spare:{seed}"))

    @property
    def expected_rank(self) -> int:
        """C(n+d, d), the rank every passing component must reach."""
        n = int(self.args[self.args.index("--n") + 1])
        return comb(n + self.d, self.d)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rank-heavy",
            "one joint on 15 planes; the rank check composes 181 product operators (verify, poly)",
            lambda rng: generic_hyperplanes(rng, 6, 6),
            lambda rng: generic_hyperplanes(rng, 6, 6),
            ("--n", "2"), ("--n", "1"), 0,
            6,
        ),
        Workload(
            "descent-heavy",
            "grid plus line; balance rebuilds W 35 times and ends cap-hit (balance, basis, varieties)",
            lambda rng: grid_line_composite(rng, 4),
            lambda rng: grid_line_composite(rng, 2),
            ("--n", "8", "--tau", "1/224"), ("--n", "8", "--tau", "1/224"), 3,
            2,
        ),
        Workload(
            "curved-q",
            "lines, parabolas and circles over Q; curved charts and Fraction ledgers (varieties, basis)",
            lambda rng: curved_plane(rng, 10, 6, 5, 5),
            lambda rng: curved_plane(rng, 5, 2, 1, 1),
            ("--n", "6"), ("--n", "6"), 0,
            2,
        ),
        Workload(
            "detect-heavy",
            "35 planes and 7 joints; loading the config detects the joints (config, linalg)",
            lambda rng: generic_hyperplanes(rng, 6, 7),
            lambda rng: generic_hyperplanes(rng, 6, 6),
            ("--n", "2"), ("--n", "1"), 0,
            6,
        ),
    )
}
