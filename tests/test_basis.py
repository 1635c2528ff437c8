"""Priority order, vanishing-condition ledgers, T-space dimensions."""

import itertools
import random

import pytest

from jointslab.basis import (
    Handicap,
    T_dimension,
    build_ledger,
    functional_rows,
    ledgers_summary,
    ledgers_to_csv,
    step_order,
)
from jointslab.config import Family, detect_joints, generate, grid_line_composite
from jointslab.errors import UnknownJoint
from jointslab.field import DEFAULT_PRIME, FieldSpec, binom
from jointslab.linalg import IncrementalRowReducer
from jointslab.poly import AffineMap, Polynomial, monomials_upto, parse_poly, taylor_shift
from jointslab.varieties import VarietySpec, derivative_operator, make_chart

from oracles import identity_map, local_expansion, v_vector

F = FieldSpec("prime", DEFAULT_PRIME)
FQ = FieldSpec("rational")


def full_plane(Ff):
    return VarietySpec(
        kind="flat", ambient=2, dim=2, degree=1,
        point=(Ff.zero, Ff.zero),
        directions=((Ff.one, Ff.zero), (Ff.zero, Ff.one)),
    )


def plane_charts(Ff, points):
    V = full_plane(Ff)
    return [make_chart(V, p, Ff) for p in points]


# -- priority order ---------------------------------------------------------


def priority_less(a, b, h: Handicap) -> bool:
    """The priority order on steps (joint, order), strict: by level
    r - alpha_p, then by preassigned position.  The oracle of
    ``step_order``."""
    (p, r), (q, t) = a, b
    return (r - h.of(p), h.position(p)) < (t - h.of(q), h.position(q))


def test_priority_order_examples():
    h = Handicap({0: 0, 1: 1, 2: 0}, [0, 1, 2])
    # levels r - alpha: (1,1) has level 0 like (0,0) and (2,0)
    assert priority_less((0, 0), (1, 1), h)  # same level, earlier position
    assert priority_less((1, 1), (2, 0), h)
    assert priority_less((2, 0), (0, 1), h)  # level 0 before level 1
    assert not priority_less((0, 1), (2, 0), h)
    assert not priority_less((0, 0), (0, 0), h)


def test_step_order_is_the_priority_order():
    # every step once, each strictly before the next, with a tie order
    # that is not the joint order
    rng = random.Random(1)
    ids = list(range(5))
    for _ in range(20):
        tie_order = rng.sample(ids, len(ids))
        h = Handicap({p: rng.randint(-3, 3) for p in ids}, tie_order)
        joints = sorted(rng.sample(ids, 3))
        steps = step_order(h, joints, 4)
        assert sorted(steps) == [(j, r) for j in joints for r in range(5)]
        assert all(priority_less(a, b, h) for a, b in zip(steps, steps[1:]))


def test_priority_is_total_order():
    rng = random.Random(0)
    ids = list(range(5))
    h = Handicap({p: rng.randint(-2, 2) for p in ids}, ids)
    steps = [(p, r) for p in ids for r in range(4)]
    for a, b in itertools.combinations(steps, 2):
        assert priority_less(a, b, h) != priority_less(b, a, h)
    for a, b, c in itertools.permutations(rng.sample(steps, 6), 3):
        if priority_less(a, b, h) and priority_less(b, c, h):
            assert priority_less(a, c, h)


def test_handicap_guards():
    h = Handicap({0: 0, 1: 0}, [0, 1])
    with pytest.raises(UnknownJoint):
        h.of(7)
    with pytest.raises(UnknownJoint):
        h.position(7)
    with pytest.raises(UnknownJoint):
        Handicap({0: 0}, [0, 1])


# -- functional rows --------------------------------------------------------


def test_row_order_zero_is_evaluation():
    C = plane_charts(FQ, [(2, 3)])[0]
    rows = functional_rows(C, 0, 2)
    assert len(rows) == 1
    monos = monomials_upto(2, 2)
    expected = [Polynomial.monomial(FQ, 2, e).evaluate([2, 3]) for e in monos]
    assert rows[0].coeffs == expected


def test_flat_rows_order_one():
    C = plane_charts(FQ, [(0, 0)])[0]
    rows = functional_rows(C, 1, 2)
    monos = monomials_upto(2, 2)
    got = {tuple(r.coeffs) for r in rows}
    ex1 = tuple(FQ.one if e == (1, 0) else FQ.zero for e in monos)
    ex2 = tuple(FQ.one if e == (0, 1) else FQ.zero for e in monos)
    assert got == {ex1, ex2}


def test_circle_row_order_two():
    E = parse_poly("1 * x1^2 + 1 * x2^2 + -1 * x2", FQ, 2)
    V = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=2,
                    point=(0, 0), directions=((1, 0), (0, 1)), surface_poly=E)
    C = make_chart(V, (0, 0))
    rows = functional_rows(C, 2, 2)
    assert len(rows) == 1
    monos = monomials_upto(2, 2)
    # D^2 = Hasse^(2,0) + Hasse^(0,1): hits the x1^2 and x2 coefficients
    expected = [FQ.one if e in ((2, 0), (0, 1)) else FQ.zero for e in monos]
    assert rows[0].coeffs == expected


def test_rows_are_built_once_per_chart_and_not_mutated():
    C = plane_charts(F, [(3, 5)])[0]
    rows = functional_rows(C, 2, 3)
    assert all(a.coeffs is b.coeffs for a, b in zip(functional_rows(C, 2, 3), rows, strict=True))
    assert {len(row.coeffs) for row in functional_rows(C, 2, 4)} == {binom(6, 2)}
    fresh = functional_rows(plane_charts(F, [(3, 5)])[0], 2, 3)
    assert [row.coeffs for row in rows] == [row.coeffs for row in fresh]
    # reduce them against a store that already holds other rows
    red = IncrementalRowReducer(F)
    for r in (0, 1):
        for row in functional_rows(C, r, 3):
            red.insert(row.coeffs)
    before = [list(row.coeffs) for row in rows]
    for row in rows:
        red.insert(row.coeffs)
    assert [row.coeffs for row in rows] == before


def test_rows_memoised_before_growth_match_a_fresh_chart():
    # rows built while a hypersurface's series is solved through degree 2
    # stay valid as it grows: every row equals that of a chart grown to
    # degree 6 in one jump before any row was built
    circle = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=2, point=(0, 0),
                         directions=((1, 0), (0, 1)),
                         surface_poly=parse_poly("1 * x1^2 + 1 * x2^2 + -25", FQ, 2))
    sphere = VarietySpec(kind="hypersurface", ambient=3, dim=2, degree=2, point=(0, 0, 0),
                         directions=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                         surface_poly=parse_poly("1 * x1^2 + 1 * x2^2 + 1 * x3^2 + -9", FQ, 3))
    for V, p, n in ((circle, (3, 4), 4), (sphere, (1, 2, 2), 3)):
        C = make_chart(V, p, FQ)
        early = [functional_rows(C, r, n) for r in range(3)]
        assert max(sum(beta) for x in C.coordinates(2) for beta in x) == 2
        grown = early + [functional_rows(C, r, n) for r in range(3, 7)]
        assert max(sum(beta) for x in C.coordinates(6) for beta in x) == 6
        fresh = make_chart(V, p, FQ)
        fresh.coordinates(6)
        expected = {r: functional_rows(fresh, r, n) for r in reversed(range(7))}
        for r, rows in enumerate(grown):
            assert [row.coeffs for row in rows] == [row.coeffs for row in expected[r]]
        assert [functional_rows(C, r, n) for r in range(3)] == early


def oracle_charts():
    """name -> (chart, degree bound), all away from the origin: a flat with
    a non-trivial frame in every characteristic tried, and curved charts."""
    out = {}
    for name, Ff in (("F2", FieldSpec("prime", 2)), ("F3", FieldSpec("prime", 3)),
                     ("Fp", F), ("Q", FQ)):
        plane = VarietySpec(kind="flat", ambient=3, dim=2, degree=1, point=(1, 0, 1),
                            directions=((1, 1, 0), (0, 1, 2)))
        out[name] = (make_chart(plane, (2, 1, 1), Ff), 3)
    cubic = VarietySpec(kind="graph", ambient=2, dim=1, degree=3,
                        frame=AffineMap(FQ, [[1, 1], [0, 1]], [0, 1]),
                        graph_polys=(parse_poly("1/2 * x1^2 + -1 * x1^3", FQ, 1),))
    out["graph-curve"] = (make_chart(cubic, (9, -7), FQ), 3)
    saddle = VarietySpec(kind="graph", ambient=3, dim=2, degree=2,
                         frame=identity_map(FQ, 3),
                         graph_polys=(parse_poly("1 * x1 x2 + -2 * x2^2", FQ, 2),))
    out["graph-surface"] = (make_chart(saddle, (1, 2, -6), FQ), 2)
    circle = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=2,
                         point=(0, 0), directions=((1, 0), (0, 1)),
                         surface_poly=parse_poly("1 * x1^2 + 1 * x2^2 + -25", FQ, 2))
    out["circle"] = (make_chart(circle, (3, 4), FQ), 3)
    return out


@pytest.mark.parametrize("case", ["F2", "F3", "Fp", "Q", "graph-curve", "graph-surface",
                                  "circle"])
def test_rows_match_operator_and_expansion_oracles(case):
    # row entry for x^delta = lambda^|gamma| D^gamma x^delta (center)
    # = lambda^|gamma| [t^gamma] x^delta(phi(t)), lambda the chart's scale
    C, n = oracle_charts()[case]
    Ff, d = C.field, C.owner.ambient
    # the cubic's Taylor shift has x1^2 coefficient 1/2; the circle's
    # tangent (-4/3, 1) gives 3, and its in-flat equation in integers,
    # 9 s^2 - 24 t s + 25 t^2 + 54 s, the s-coefficient 54
    assert C.scale == (1 if Ff.p else {"graph-curve": 2, "circle": 3 * 54}.get(case, 1))
    monos = monomials_upto(d, n)
    expansions = [local_expansion(C, Polynomial.monomial(Ff, d, delta), 5) for delta in monos]
    for r in range(6):
        for row in functional_rows(C, r, n):
            D = derivative_operator(C, row.gamma)
            scalar = Ff.of(C.scale ** r)
            operator = [D.monomial_functional(delta, C.center) for delta in monos]
            assert row.coeffs == [Ff.mul(scalar, c) for c in operator]
            assert row.coeffs == [Ff.mul(scalar, x.coefficient(row.gamma)) for x in expansions]


# -- ledgers ----------------------------------------------------------------


def test_build_ledger_wraps_only_library_errors(monkeypatch):
    # the two axes meet at the origin, where the cusp x2^2 = x1^3 passes
    # through with no chart: it imposes no condition there, so its ledger
    # is empty, while a bug in chart building surfaces from detection as
    # it is
    import jointslab.config as config_module

    axes = [VarietySpec(kind="flat", ambient=2, dim=1, degree=1, point=(0, 0), directions=(u,))
            for u in ((1, 0), (0, 1))]
    cusp = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=3,
                       point=(0, 0), directions=((1, 0), (0, 1)),
                       surface_poly=parse_poly("1 * x2^2 + -1 * x1^3", FQ, 2))
    families = [Family(k=1, m=2, members=[*axes, cusp])]
    cfg = detect_joints(FQ, families, candidates=[(0, 0)])
    assert cfg.joints_on((0, 2)) == [0] and cfg.charts[0][0, 2] is None
    h = Handicap.zero(range(len(cfg.joints)))
    assert build_ledger(cfg, (0, 0), h, 2).rank == 3
    cusp = build_ledger(cfg, (0, 2), h, 2)
    assert (cusp.rank, cusp.steps, cusp.counts, cusp.cap_hit) == (0, [], {}, False)

    def make_chart(*args, **kwargs):
        raise TypeError("a bug")

    monkeypatch.setattr(config_module, "make_chart", make_chart)
    with pytest.raises(TypeError):
        detect_joints(FQ, families, candidates=[(0, 0)])


def test_single_point_ledger():
    cfg = generate("grid", field=F, seed=0, t=1)
    h = Handicap.zero(range(len(cfg.joints)))
    led = build_ledger(cfg, (0, 0), h, 2)
    assert led.target == binom(4, 2) == 6
    assert led.rank == 6 and not led.cap_hit
    assert led.counts[0] == {0: 1, 1: 2, 2: 3}
    assert led.joint_total(0) == 6


def test_ledger_totals_sum_to_target():
    for cfg, n in (
        (generate("grid", field=F, seed=1, t=2), 2),
        (generate("line", field=F, seed=1, t=2), 3),
        (grid_line_composite(F, 2, seed=2), 3),
    ):
        h = Handicap.zero(range(len(cfg.joints)))
        led = build_ledger(cfg, (0, 0), h, n)
        assert not led.cap_hit
        assert led.rank == led.target
        assert sum(led.totals().values()) == led.target
        assert all(v >= 0 for tbl in led.counts.values() for v in tbl.values())
        assert all(led.joint_total(p) <= led.target for p in led.counts)


def test_ledger_steps_follow_priority_order():
    cfg = grid_line_composite(F, 2, seed=2)
    ids = list(range(len(cfg.joints)))
    rng = random.Random(3)
    h = Handicap({p: rng.randint(-1, 1) for p in ids}, ids)
    led = build_ledger(cfg, (0, 0), h, 3)
    seq = [(st.joint, st.order) for st in led.steps]
    for a, b in zip(seq, seq[1:]):
        assert priority_less(a, b, h)


def test_ledger_shift_invariance():
    cfg = generate("grid", field=F, seed=1, t=2)
    ids = list(range(len(cfg.joints)))
    h = Handicap({0: 0, 1: -1, 2: 1, 3: 0}, ids)
    a = build_ledger(cfg, (0, 0), h, 2)
    b = build_ledger(cfg, (0, 0), Handicap({p: a + 7 for p, a in h.alpha.items()}, ids), 2)
    assert a.counts == b.counts
    assert [(s.joint, s.order, s.count) for s in a.steps] == [
        (s.joint, s.order, s.count) for s in b.steps
    ]


def test_ledger_cap_hit():
    cfg = generate("grid", field=F, seed=0, t=1)
    h = Handicap.zero([0])
    led = build_ledger(cfg, (0, 0), h, 3, cap=1)
    assert led.cap_hit
    assert led.rank == 3  # orders 0 and 1 only: 1 + 2 rows


def test_count_equals_T_codimension():
    # |B^r_p| must equal dim T(v) - dim T(v with p bumped to r+1) where
    # v = v_vector(p, r): the greedy walk and the subspace ladder agree
    cfg = grid_line_composite(F, 2, seed=2)
    ids = list(range(len(cfg.joints)))
    rng = random.Random(5)
    h = Handicap({p: rng.randint(0, 1) for p in ids}, ids)
    n = 3
    led = build_ledger(cfg, (0, 0), h, n)
    charts = plane_charts(F, cfg.joints)
    for st in led.steps:
        v = v_vector(st.joint, st.order, h, ids)
        before = [v[p] for p in ids]
        after = list(before)
        after[st.joint] = st.order + 1
        drop = T_dimension(charts, before, n) - T_dimension(charts, after, n)
        assert st.count == drop


# -- T dimensions ------------------------------------------------------------


def test_T_dimension_oracles():
    # one point, full vanishing: order >= 3 kills all of F[x,y]_{<=2}
    assert T_dimension(plane_charts(FQ, [(1, 2)]), [3], 2) == 0
    # four collinear points, order >= 2 each, degree <= 2: only l^2 survives
    pts = [(i, i) for i in range(4)]
    assert T_dimension(plane_charts(FQ, pts), [2, 2, 2, 2], 2) == 1
    # 3x3 grid, order >= 2 each, degree <= 5: nothing survives
    grid = [(a, b) for a in range(3) for b in range(3)]
    assert T_dimension(plane_charts(FQ, grid), [2] * 9, 5) == 0


def test_T_dimension_matches_taylor_oracle():
    # independent oracle: rows are Taylor coefficients of shifted monomials
    rng = random.Random(6)
    pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(4)]
    pts = list(dict.fromkeys(pts))
    v = [rng.randint(0, 3) for _ in pts]
    n = 4
    monos = monomials_upto(2, n)
    red = IncrementalRowReducer(FQ)
    for p, vp in zip(pts, v):
        shifts = [taylor_shift(Polynomial.monomial(FQ, 2, e), [FQ.of(x) for x in p])
                  for e in monos]
        for gamma in monomials_upto(2, vp - 1) if vp else ():
            red.insert([s.coefficient(gamma) for s in shifts])
    oracle = binom(n + 2, 2) - red.rank
    assert T_dimension(plane_charts(FQ, pts), v, n) == oracle


# -- dump formats -----------------------------------------------------------


def test_csv_and_summary():
    cfg = generate("grid", field=F, seed=1, t=2)
    h = Handicap.zero(range(4))
    led = build_ledger(cfg, (0, 0), h, 2)
    text = ledgers_to_csv([led])
    lines = text.strip().splitlines()
    assert lines[0] == "variety,joint,r,count"
    assert len(lines) == 1 + len(led.steps)
    summary = ledgers_summary([led])
    assert summary == {"0-0": {str(p): led.joint_total(p) for p in led.counts
                               if led.joint_total(p)}}
