"""Priority-ordered vanishing-condition bases on a variety.

Given a handicap vector alpha over the joints, steps (p, r) are ordered
by r - alpha_p with ties broken by a preassigned order on the joints.
Walking the steps in this order, each step contributes the functional
rows g -> D^gamma g(p) for all local gamma with |gamma| = r, each the
t^gamma Taylor coefficient along the chart's parametrization
(``poly.expansion_row``); a greedy maximal independent subset is kept.
The walk stops when the selected rows span the dual of R_{V, <= n},
giving the counts |B^r_{p,V}| whose per-joint totals drive the counting
argument.  Every row is a functional on F[u]_{<= n}, u the c coordinates
of the space the chart reads its rows in (``Chart.row_coordinates``),
which restriction g -> g(base + D u) maps F[x]_{<= n} onto: so a set of
them is independent exactly when the ambient functionals are, and a walk
picks the same gammas on C(n+c, c) columns instead of C(n+d, d).  Each
row is read in the chart the configuration built for (V, p) at
detection and memoised there by gamma; a joint where V is singular, with
no chart, adds no step.  A ledger keeps the selected gammas only: with those charts, they
are all the rank check reads.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass

from .errors import ChartMissing, UnknownJoint
from .linalg import IncrementalRowReducer
from .poly import expansion_row, exponents_of_degree
from .varieties import Chart, dim_regular_functions


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

    @staticmethod
    def zero(joint_ids) -> "Handicap":
        ids = list(joint_ids)
        return Handicap({p: 0 for p in ids}, ids)


def functional_rows(C: Chart, r: int, n: int) -> dict:
    """{gamma: row} for the local gammas with |gamma| = r, in graded-lex
    order: the row of g -> D^gamma g(p), p the chart's center, the t^gamma
    coefficient of g along the chart's parametrization phi.  Each is the
    ``expansion_row`` of gamma along the chart's ``row_coordinates``,
    z + B (lambda t, h(lambda t)) with lambda its ``row_scale``, in the
    coordinates u of the space it reads rows in, for every kind: so
    D^gamma g(p) is lambda^-|gamma| [t^gamma] G(u(t)) for the restriction
    G(u) = g(base + D u), and the row runs over the monomials of
    ``monomials_upto(c, n)``.  Times the restriction matrix, whose row
    epsilon is the expansion row of u^epsilon along base + D u, it is
    lambda^|gamma| times the ambient row; that matrix has independent
    rows, since restriction is onto, so both sets of rows have the same
    independent subsets.  Over Q the rows are built in ints, except where
    a non-integral z puts a ``Fraction`` in them.

    A row reads the coordinates through degree r only, and lambda is
    fixed with the chart, so one memo per degree bound serves the chart as
    its series grows.  The memo is the chart's ``expansion_memos`` entry,
    so each row is built once per chart; callers share the rows and must
    not modify them.
    """
    coords = C.row_coordinates(r)
    memo = C.expansion_memos.setdefault(n, {})
    return {
        gamma: expansion_row(C.field, coords, n, gamma, memo)
        for gamma in exponents_of_degree(C.owner.dim, r)
    }


@dataclass
class LedgerStep:
    joint: object
    order: int
    gammas: list  # the selected gammas, which key the chart's memo rows


@dataclass
class BasisLedger:
    """Selected B^r_{p,V} / D^r_{p,V} data for one member variety."""

    variety_id: object
    n: int
    rank: int
    steps: list  # LedgerSteps with a selected gamma only
    counts: dict  # joint -> {r: count}
    cap_hit: bool

    def joint_total(self, p) -> int:
        return sum(self.counts.get(p, {}).values())

    def totals(self) -> dict:
        return {p: sum(tbl.values()) for p, tbl in self.counts.items()}

    def selected_gammas(self, p) -> list:
        """The gammas selected at joint p, in step order (increasing r),
        then in row order."""
        return [gamma for st in self.steps if st.joint == p for gamma in st.gammas]


def default_cap(V, n: int) -> int:
    """The highest step order a ledger of V walks by default: n * deg V."""
    return n * V.degree


def step_order(h: Handicap, joints, cap: int) -> list:
    """The steps (j, r), j in ``joints`` and 0 <= r <= cap, in priority
    order: by level r - alpha_j, ties by preassigned position.  A ledger
    walks them in this order, so it depends on the handicap only through
    this list.  The steps are sorted by the integer keys
    (r - alpha_j) * N + position of j, N the joint count, which order
    the same way as the pairs and are distinct, since the positions are
    distinct and below N."""
    N = len(h.preassigned)
    lead = {j: h.position(j) - N * h.of(j) for j in joints}  # the key of (j, 0)
    steps = {k + N * r: (j, r) for j, k in lead.items() for r in range(cap + 1)}
    return [steps[k] for k in sorted(steps)]


@dataclass
class Walk:
    """One ledger build: the steps it walked, the gammas it picked at
    each of them, its reducer at the end and the ledger it gave."""

    order: list  # the steps walked, a prefix of the build's step order
    picks: list  # per walked step, the gammas it picked
    red: IncrementalRowReducer
    ledger: BasisLedger


def _shared_prefix(a: list, b: list) -> int:
    for k, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return k
    return min(len(a), len(b))


def build_ledger(
    cfg,
    ref,
    h: Handicap,
    n: int,
    cap: int | None = None,
    walks: list | None = None,
) -> BasisLedger:
    """Build the ledger slice of one member variety.

    ``ref`` is the (family, member) reference.  Joint ids are the
    configuration's joint indices, and the rows at joint j are read in
    ``cfg.charts[j][ref]``.  A member imposes conditions only where it
    has a chart: the ledger walks the joints on it where it is regular,
    so a member singular at every joint it passes through has an empty
    ledger, as one through no joint has.

    ``walks`` optionally is a list of ``Walk``s shared by builds of this
    member on this configuration at the same n and cap; the build is
    appended to it.  A ledger depends only on the steps it walks, so the
    build sorts its step order first and returns the ledger of the latest
    stored walk whose steps begin it, as it is.  Otherwise it resumes
    after the longest prefix it shares with a stored walk, from that
    walk's reducer cut back to the rank the prefix reached
    (``IncrementalRowReducer.fork``); a build that shares no prefix forks
    the first stored walk's reducer at rank 0.  So the walks of one store
    descend from the first walk's reducer, made with a pack memo, and
    pack each chart row once between them: the rows are the charts' memo
    rows, which no one modifies.  The memo lives as long as the store's
    reducers; a build with no store makes a reducer with no memo.
    """
    F = cfg.field
    V = cfg.member(ref)
    charts = {j: cfg.charts[j][ref] for j in cfg.joints_on(ref)}
    on = [j for j, C in charts.items() if C is not None]
    if cap is None:
        cap = default_cap(V, n)
    order = step_order(h, on, cap)
    for walk in reversed(walks or ()):
        if order[:len(walk.order)] == walk.order:
            return walk.ledger
    shared, base = 0, walks[0] if walks else None
    for walk in walks or ():
        k = _shared_prefix(walk.order, order)
        if k > shared:
            shared, base = k, walk
    target = dim_regular_functions(V, n, F)
    if base is None:
        picks, red = [], IncrementalRowReducer(F, memo=walks is not None)
    else:
        # the base walk went on past the prefix, so it is below target there
        picks = base.picks[:shared]
        red = base.red.fork(sum(map(len, picks)))
    for j, r in order[shared:]:
        picks.append([g for g, row in functional_rows(charts[j], r, n).items() if red.insert(row)])
        if red.rank >= target:
            break
    steps, counts = [], {j: {} for j in on}
    for (j, r), picked in zip(order, picks):
        if picked:
            counts[j][r] = len(picked)
            steps.append(LedgerStep(j, r, picked))
    cap_hit = bool(on) and red.rank < target
    ledger = BasisLedger(ref, n, red.rank, steps, counts, cap_hit)
    if walks is not None:
        walks.append(Walk(order[:len(picks)], picks, red, ledger))
    return ledger


# ---------------------------------------------------------------------------
# Vanishing spaces T(v, n)
# ---------------------------------------------------------------------------


def T_dimension(charts: list, v, n: int) -> int:
    """dim {g in R_{V,<=n} : g vanishes to order >= v_p at each point}.

    ``charts`` holds one chart per point (all on the same variety, which
    may be the full ambient space presented as a flat); v is the
    corresponding list of required orders.  It is dim R_{V,<=n} less the
    rank of the ``functional_rows`` of orders below v_p, read in each
    chart's row coordinates, onto which restriction is onto.
    """
    if not charts:
        raise ChartMissing("at least one chart is required")
    V = charts[0].owner
    F = charts[0].field
    dim_R = dim_regular_functions(V, n, F)
    red = IncrementalRowReducer(F)
    for C, vp in zip(charts, v):
        for r in range(vp):
            for row in functional_rows(C, r, n).values():
                red.insert(row)
    return dim_R - red.rank


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
            w.writerow([vid, st.joint, st.order, len(st.gammas)])
    return buf.getvalue()


def ledgers_summary(ledgers: list) -> dict:
    out = {}
    for led in ledgers:
        vid = "-".join(str(x) for x in led.variety_id)
        out[vid] = {str(p): tot for p, tot in led.totals().items()}
    return out
