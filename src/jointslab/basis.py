"""Priority-ordered vanishing-condition bases on a variety.

Given a handicap vector alpha over the joints, steps (p, r) are ordered
by r - alpha_p with ties broken by a preassigned order on the joints.
Walking the steps in this order, each step contributes the functional
rows g -> D^gamma g(p) for all local gamma with |gamma| = r, each the
t^gamma Taylor coefficient along the chart's parametrization
(``poly.expansion_row``); a greedy maximal independent subset is kept.
The walk stops when the selected rows span the dual of R_{V, <= n},
giving the counts |B^r_{p,V}| whose per-joint totals drive the counting
argument.  A ledger keeps the selected gammas and each joint's chart
coordinates, which is all the rank check reads.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass

from .errors import ChartMissing, JointslabError, TruncationTooLow, UnknownJoint
from .linalg import IncrementalRowReducer
from .poly import expansion_row, exponents_of_degree
from .varieties import Chart, dim_regular_functions, make_chart


@dataclass
class Handicap:
    """Integer handicap per joint plus the fixed tie-breaking order."""

    alpha: dict  # joint id -> int
    preassigned: list  # joint ids, a permutation fixing the tie order

    def __post_init__(self):
        if set(self.alpha) != set(self.preassigned):
            raise UnknownJoint("handicap and preassigned order disagree on the joint set")
        self._pos = {p: i for i, p in enumerate(self.preassigned)}

    def position(self, p):
        if p not in self._pos:
            raise UnknownJoint(f"joint {p!r} not in the preassigned order")
        return self._pos[p]

    def of(self, p):
        if p not in self.alpha:
            raise UnknownJoint(f"joint {p!r} has no handicap")
        return self.alpha[p]

    def shifted(self, delta: int) -> "Handicap":
        return Handicap({p: a + delta for p, a in self.alpha.items()}, list(self.preassigned))

    @staticmethod
    def zero(joint_ids) -> "Handicap":
        ids = list(joint_ids)
        return Handicap({p: 0 for p in ids}, ids)


def priority_less(a, b, h: Handicap) -> bool:
    """Strict priority order on steps (joint, order)."""
    pa, ra = a
    pb, rb = b
    ka = ra - h.of(pa)
    kb = rb - h.of(pb)
    if ka != kb:
        return ka < kb
    return h.position(pa) < h.position(pb)


def v_vector(p, r: int, h: Handicap, P) -> dict:
    """Vanishing orders forced at each point of P by the time step (p, r)
    is reached: the smallest order whose step has not yet been processed."""
    if p not in set(P):
        raise UnknownJoint(f"joint {p!r} not among the points")
    out = {}
    for q in P:
        bump = 1 if h.position(q) < h.position(p) else 0
        val = r - h.of(p) + h.of(q) + bump if q != p else r
        out[q] = max(val, 0)
    return out


@dataclass
class FunctionalRow:
    """Coefficient vector of g -> D^gamma g(p) over the monomial basis."""

    coeffs: list
    joint: object
    order: int
    gamma: tuple


def functional_rows(C: Chart, p, r: int, n: int) -> list:
    """One row per local gamma with |gamma| = r, over F[x]_{<= n}.

    D^gamma g(p) is the t^gamma coefficient of g along the chart's
    parametrization, so each row is the chart's ``expansion_row`` of
    gamma.  The rows depend only on the chart, so they are built once and
    kept on it; every later call returns the same list, which callers
    share and must not modify.
    """
    if r > C.truncation:
        raise TruncationTooLow(f"chart truncated at {C.truncation}, need order {r}")
    rows = C.row_cache.get((p, r, n))
    if rows is None:
        coords = C.coordinates()
        memo = C.expansion_memos.setdefault(n, {})
        rows = [
            FunctionalRow(expansion_row(C.field, coords, n, gamma, memo), p, r, gamma)
            for gamma in exponents_of_degree(C.owner.dim, r)
        ]
        C.row_cache[p, r, n] = rows
    return rows


@dataclass
class LedgerStep:
    joint: object
    order: int
    count: int
    rows: list  # selected FunctionalRows


@dataclass
class BasisLedger:
    """Selected B^r_{p,V} / D^r_{p,V} data for one member variety."""

    variety_id: object
    n: int
    target: int  # dim R_{V, <= n}
    rank: int
    steps: list  # LedgerSteps with count > 0 only
    counts: dict  # joint -> {r: count}
    cap: int
    cap_hit: bool
    coordinates: dict  # joint -> its chart's coordinates(), read by the rank check

    def joint_total(self, p) -> int:
        return sum(self.counts.get(p, {}).values())

    def totals(self) -> dict:
        return {p: sum(tbl.values()) for p, tbl in self.counts.items()}

    def selected_gammas(self, p) -> list:
        """The gammas selected at joint p, in step order (increasing r),
        then in row order."""
        return [row.gamma for st in self.steps if st.joint == p for row in st.rows]


def build_ledger(
    cfg,
    ref,
    h: Handicap,
    n: int,
    charts: dict | None = None,
    cap: int | None = None,
) -> BasisLedger:
    """Build the ledger slice of one member variety.

    ``ref`` is the (family, member) reference; ``charts`` optionally maps
    joint id -> Chart (required for raw-slice members, built otherwise).
    Joint ids are the configuration's joint indices.
    """
    F = cfg.field
    V = cfg.member(ref)
    on = cfg.joints_on(ref)
    deg = max(1, V.degree)
    if cap is None:
        cap = n * deg
    if charts is None:
        charts = {}
    for j in on:
        if j not in charts:
            try:
                charts[j] = make_chart(V, cfg.joints[j], cap, F)
            except JointslabError as exc:
                raise ChartMissing(f"no chart at joint {j} on {ref}: {exc}") from exc
    target = dim_regular_functions(V, n, F)
    red = IncrementalRowReducer(F)
    steps, counts = [], {j: {} for j in on}
    cap_hit = False
    # walk levels l = r - alpha_p upward; within a level, preassigned order
    if on:
        lo = -max(h.of(j) for j in on)
        hi = cap - min(h.of(j) for j in on)
        level_joints = sorted(on, key=h.position)
        done = False
        for level in range(lo, hi + 1):
            if done:
                break
            for j in level_joints:
                r = level + h.of(j)
                if r < 0 or r > cap:
                    continue
                picked = []
                for row in functional_rows(charts[j], j, r, n):
                    if red.insert(row.coeffs):
                        picked.append(row)
                if picked:
                    counts[j][r] = len(picked)
                    steps.append(LedgerStep(j, r, len(picked), picked))
                if red.rank >= target:
                    done = True
                    break
        if not done and red.rank < target:
            cap_hit = True
    coords = {j: charts[j].coordinates() for j in on}
    return BasisLedger(ref, n, target, red.rank, steps, counts, cap, cap_hit, coords)


# ---------------------------------------------------------------------------
# Vanishing spaces T(v, n) and codimension counters
# ---------------------------------------------------------------------------


def T_dimension(charts: list, v, n: int) -> int:
    """dim {g in R_{V,<=n} : g vanishes to order >= v_p at each point}.

    ``charts`` holds one chart per point (all on the same variety, which
    may be the full ambient space presented as a flat); v is the
    corresponding list of required orders.
    """
    if not charts:
        raise ChartMissing("at least one chart is required")
    V = charts[0].owner
    F = charts[0].field
    dim_R = dim_regular_functions(V, n, F)
    red = IncrementalRowReducer(F)
    for C, vp in zip(charts, v):
        for r in range(vp):
            for row in functional_rows(C, None, r, n):
                red.insert(row.coeffs)
    return dim_R - red.rank


def b_p(charts: list, v, idx: int, n: int) -> int:
    """Codimension of T(v + e_idx, n) inside T(v, n)."""
    v = list(v)
    bumped = list(v)
    bumped[idx] += 1
    return T_dimension(charts, v, n) - T_dimension(charts, bumped, n)


# ---------------------------------------------------------------------------
# Dump formats
# ---------------------------------------------------------------------------


def ledgers_to_csv(ledgers: list) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["variety", "joint", "r", "count"])
    for led in ledgers:
        vid = "-".join(str(x) for x in led.variety_id)
        for st in led.steps:
            w.writerow([vid, st.joint, st.order, st.count])
    return buf.getvalue()


def ledgers_summary(ledgers: list) -> dict:
    out = {}
    for led in ledgers:
        vid = "-".join(str(x) for x in led.variety_id)
        out[vid] = {str(p): tot for p, tot in led.totals().items()}
    return out
