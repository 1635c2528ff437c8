"""Priority order, vanishing-condition ledgers, T-space dimensions."""

import itertools
import random

import pytest

from jointslab.basis import (
    BasisLedger,
    Handicap,
    T_dimension,
    b_p,
    build_ledger,
    functional_rows,
    ledgers_summary,
    ledgers_to_csv,
    priority_less,
    v_vector,
)
from jointslab.config import generate, grid_line_composite
from jointslab.errors import ChartMissing, NotOnVariety, TruncationTooLow, UnknownJoint
from jointslab.field import DEFAULT_PRIME, FieldSpec, binom
from jointslab.linalg import IncrementalRowReducer
from jointslab.poly import AffineMap, Polynomial, monomials_upto, parse_poly, taylor_shift
from jointslab.varieties import VarietySpec, derivative_operator, make_chart

F = FieldSpec("prime", DEFAULT_PRIME)
FQ = FieldSpec("rational")


def full_plane(Ff):
    return VarietySpec(
        kind="flat", ambient=2, dim=2, degree=1,
        point=(Ff.zero, Ff.zero),
        directions=((Ff.one, Ff.zero), (Ff.zero, Ff.one)),
    )


def plane_charts(Ff, points, trunc):
    V = full_plane(Ff)
    return [make_chart(V, p, trunc, Ff) for p in points]


# -- priority order ---------------------------------------------------------


def test_priority_order_examples():
    h = Handicap({0: 0, 1: 1, 2: 0}, [0, 1, 2])
    # levels r - alpha: (1,1) has level 0 like (0,0) and (2,0)
    assert priority_less((0, 0), (1, 1), h)  # same level, earlier position
    assert priority_less((1, 1), (2, 0), h)
    assert priority_less((2, 0), (0, 1), h)  # level 0 before level 1
    assert not priority_less((0, 1), (2, 0), h)
    assert not priority_less((0, 0), (0, 0), h)


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


# -- v-vector ---------------------------------------------------------------


def test_v_vector_example():
    h = Handicap({0: 0, 1: 1, 2: 0}, [0, 1, 2])
    # at step (1, 2): level 1; joint 0 is strictly earlier (same level
    # steps already processed), joint 2 is not
    assert v_vector(1, 2, h, [0, 1, 2]) == {0: 2, 1: 2, 2: 1}
    # negative values clamp to zero
    h2 = Handicap({0: 0, 1: 5}, [0, 1])
    assert v_vector(0, 0, h2, [0, 1]) == {0: 0, 1: 5}
    assert v_vector(1, 0, h2, [0, 1]) == {0: 0, 1: 0}
    with pytest.raises(UnknownJoint):
        v_vector(9, 0, h, [0, 1, 2])


# -- functional rows --------------------------------------------------------


def test_row_order_zero_is_evaluation():
    C = plane_charts(FQ, [(2, 3)], 3)[0]
    rows = functional_rows(C, "p", 0, 2)
    assert len(rows) == 1
    monos = monomials_upto(2, 2)
    expected = [Polynomial.monomial(FQ, 2, e).evaluate([2, 3]) for e in monos]
    assert rows[0].coeffs == expected


def test_flat_rows_order_one():
    C = plane_charts(FQ, [(0, 0)], 3)[0]
    rows = functional_rows(C, "p", 1, 2)
    monos = monomials_upto(2, 2)
    got = {tuple(r.coeffs) for r in rows}
    ex1 = tuple(FQ.one if e == (1, 0) else FQ.zero for e in monos)
    ex2 = tuple(FQ.one if e == (0, 1) else FQ.zero for e in monos)
    assert got == {ex1, ex2}


def test_circle_row_order_two():
    E = parse_poly("1 * x1^2 + 1 * x2^2 + -1 * x2", FQ, 2)
    V = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=2,
                    point=(0, 0), directions=((1, 0), (0, 1)), surface_poly=E)
    C = make_chart(V, (0, 0), 4)
    rows = functional_rows(C, "p", 2, 2)
    assert len(rows) == 1
    monos = monomials_upto(2, 2)
    # D^2 = Hasse^(2,0) + Hasse^(0,1): hits the x1^2 and x2 coefficients
    expected = [FQ.one if e in ((2, 0), (0, 1)) else FQ.zero for e in monos]
    assert rows[0].coeffs == expected


def test_rows_respect_truncation():
    C = plane_charts(FQ, [(0, 0)], 1)[0]
    with pytest.raises(TruncationTooLow):
        functional_rows(C, "p", 2, 3)


def test_rows_are_built_once_per_chart_and_not_mutated():
    C = plane_charts(F, [(3, 5)], 4)[0]
    rows = functional_rows(C, "p", 2, 3)
    assert functional_rows(C, "p", 2, 3) is rows
    assert {len(row.coeffs) for row in functional_rows(C, "p", 2, 4)} == {binom(6, 2)}
    fresh = functional_rows(plane_charts(F, [(3, 5)], 4)[0], "p", 2, 3)
    assert [row.coeffs for row in rows] == [row.coeffs for row in fresh]
    # reduce them against a store that already holds other rows
    red = IncrementalRowReducer(F)
    for r in (0, 1):
        for row in functional_rows(C, "p", r, 3):
            red.insert(row.coeffs)
    before = [list(row.coeffs) for row in rows]
    for row in rows:
        red.insert(row.coeffs)
    assert [row.coeffs for row in rows] == before


def oracle_charts():
    """name -> (chart, degree bound), all away from the origin: a flat with
    a non-trivial frame in every characteristic tried, and curved charts."""
    out = {}
    for name, Ff in (("F2", FieldSpec("prime", 2)), ("F3", FieldSpec("prime", 3)),
                     ("Fp", F), ("Q", FQ)):
        plane = VarietySpec(kind="flat", ambient=3, dim=2, degree=1, point=(1, 0, 1),
                            directions=((1, 1, 0), (0, 1, 2)))
        out[name] = (make_chart(plane, (2, 1, 1), 3, Ff), 3)
    parabola = VarietySpec(kind="graph", ambient=2, dim=1, degree=2,
                           frame=AffineMap(FQ, [[1, 1], [0, 1]], [0, 1]),
                           graph_polys=(parse_poly("1/2 * x1^2 + -1 * x1^3", FQ, 1),))
    out["graph-curve"] = (make_chart(parabola, (9, -7), 4, FQ), 3)
    saddle = VarietySpec(kind="graph", ambient=3, dim=2, degree=2,
                         frame=AffineMap.identity(FQ, 3),
                         graph_polys=(parse_poly("1 * x1 x2 + -2 * x2^2", FQ, 2),))
    out["graph-surface"] = (make_chart(saddle, (1, 2, -6), 3, FQ), 2)
    circle = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=2,
                         point=(0, 0), directions=((1, 0), (0, 1)),
                         surface_poly=parse_poly("1 * x1^2 + 1 * x2^2 + -25", FQ, 2))
    out["circle"] = (make_chart(circle, (3, 4), 5, FQ), 3)
    return out


@pytest.mark.parametrize("case", ["F2", "F3", "Fp", "Q", "graph-curve", "graph-surface",
                                  "circle"])
def test_rows_match_operator_and_expansion_oracles(case):
    # row entry for x^delta = D^gamma x^delta (center) = [t^gamma] x^delta(phi(t))
    C, n = oracle_charts()[case]
    Ff, d = C.field, C.owner.ambient
    monos = monomials_upto(d, n)
    expansions = [C.local_expansion(Polynomial.monomial(Ff, d, delta)) for delta in monos]
    for r in range(C.truncation + 1):
        for row in functional_rows(C, "p", r, n):
            D = derivative_operator(C, row.gamma)
            assert row.coeffs == [D.monomial_functional(delta, C.center) for delta in monos]
            assert row.coeffs == [x.coefficient(row.gamma) for x in expansions]


# -- ledgers ----------------------------------------------------------------


def test_build_ledger_wraps_only_library_errors(monkeypatch):
    import jointslab.basis as basis_module

    cfg = generate("grid", field=F, seed=0, t=1)
    h = Handicap.zero(range(len(cfg.joints)))

    def raising(exc):
        def make_chart(*args, **kwargs):
            raise exc
        return make_chart

    monkeypatch.setattr(basis_module, "make_chart", raising(NotOnVariety("off the flat")))
    with pytest.raises(ChartMissing):
        build_ledger(cfg, (0, 0), h, 2)
    monkeypatch.setattr(basis_module, "make_chart", raising(TypeError("a bug")))
    with pytest.raises(TypeError):
        build_ledger(cfg, (0, 0), h, 2)


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
    b = build_ledger(cfg, (0, 0), h.shifted(7), 2)
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
    charts = plane_charts(F, cfg.joints, n)
    for st in led.steps:
        v = v_vector(st.joint, st.order, h, ids)
        before = [v[p] for p in ids]
        after = list(before)
        after[st.joint] = st.order + 1
        drop = T_dimension(charts, before, n) - T_dimension(charts, after, n)
        assert st.count == drop


# -- T dimensions and b_p ---------------------------------------------------


def test_T_dimension_oracles():
    # one point, full vanishing: order >= 3 kills all of F[x,y]_{<=2}
    assert T_dimension(plane_charts(FQ, [(1, 2)], 3), [3], 2) == 0
    # four collinear points, order >= 2 each, degree <= 2: only l^2 survives
    pts = [(i, i) for i in range(4)]
    assert T_dimension(plane_charts(FQ, pts, 3), [2, 2, 2, 2], 2) == 1
    # 3x3 grid, order >= 2 each, degree <= 5: nothing survives
    grid = [(a, b) for a in range(3) for b in range(3)]
    assert T_dimension(plane_charts(FQ, grid, 3), [2] * 9, 5) == 0


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
    assert T_dimension(plane_charts(FQ, pts, n), v, n) == oracle


def test_b_p_oracles():
    # a line in the plane: first new vanishing condition has codimension 1
    line = VarietySpec(kind="flat", ambient=2, dim=1, degree=1,
                       point=(0, 0), directions=((1, 1),))
    C = make_chart(line, (0, 0), 4, FQ)
    assert b_p([C], [0], 0, 3) == 1
    # the full plane: raising order 1 -> 2 adds the two first derivatives
    assert b_p(plane_charts(FQ, [(0, 0)], 4), [1], 0, 3) == 2


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
