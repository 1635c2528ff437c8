"""Exact root arithmetic and handicap-balancing descent."""

import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointslab.balance import (
    BalanceState,
    RootValue,
    balance,
    build_all_ledgers,
    compute_W,
    default_tau,
    integer_nth_root,
    root_gap_exceeds,
)
from jointslab.basis import Handicap, default_cap, ledgers_to_csv, step_order
from jointslab.config import Family, connected_components, detect_joints, generate, grid_line_composite
from jointslab.errors import Disconnected
from jointslab.field import DEFAULT_PRIME, FieldSpec
from jointslab.poly import AffineMap, parse_poly
from jointslab.varieties import VarietySpec

F = FieldSpec("prime", DEFAULT_PRIME)
FQ = FieldSpec("rational")


# -- exact roots ------------------------------------------------------------


@given(x=st.integers(0, 10**30), m=st.integers(1, 7))
@settings(max_examples=150, deadline=None)
def test_integer_nth_root(x, m):
    k = integer_nth_root(x, m)
    assert k**m <= x < (k + 1) ** m


def test_root_value_comparisons():
    sqrt2 = RootValue(Fraction(2), 2)
    assert RootValue(Fraction(1)) < sqrt2 < RootValue(Fraction(2))
    assert sqrt2 == RootValue(Fraction(4), 4)  # 4^(1/4) = 2^(1/2)
    assert RootValue(Fraction(8), 3) == RootValue(Fraction(2))
    assert RootValue(Fraction(0), 5).is_zero()
    # equal values hash equal
    assert len({RootValue(Fraction(4), 2), RootValue(Fraction(2), 1)}) == 1
    assert len({RootValue(Fraction(8), 2), RootValue(Fraction(64), 4)}) == 1
    assert len({RootValue(Fraction(0), 3), RootValue(Fraction(0))}) == 1
    with pytest.raises(ValueError):
        RootValue(Fraction(-1))


def test_root_value_rational_and_brackets():
    assert RootValue(Fraction(27, 8), 3).to_rational() == Fraction(3, 2)
    assert RootValue(Fraction(2), 2).to_rational() is None
    lo, hi = RootValue(Fraction(2), 2).brackets(64)
    assert lo <= hi and hi - lo <= Fraction(1, 2**64)
    assert lo * lo <= 2 <= hi * hi
    assert abs(RootValue(Fraction(2), 2).approx() - 2**0.5) < 1e-12


def test_root_gap_exceeds():
    sqrt2 = RootValue(Fraction(2), 2)
    one = RootValue(Fraction(1))
    # sqrt(2) - 1 = 0.4142...
    assert root_gap_exceeds(sqrt2, one, Fraction(2, 5))
    assert not root_gap_exceeds(sqrt2, one, Fraction(1, 2))
    # irrational-vs-irrational with a rational threshold
    sqrt8 = RootValue(Fraction(8), 2)
    assert root_gap_exceeds(sqrt8, sqrt2, Fraction(7, 5))
    assert not root_gap_exceeds(sqrt8, sqrt2, RootValue(Fraction(2), 2).brackets(8)[1])


def test_root_gap_exceeds_equal_irrationals():
    # 2^(1/2) and 8^(1/6) are the same irrational number: no bracket
    # width ever separates their difference from 0
    a, b = RootValue(Fraction(2), 2), RootValue(Fraction(8), 6)
    for x, y in ((a, b), (b, a)):
        assert not root_gap_exceeds(x, y, Fraction(0))
        assert not root_gap_exceeds(x, y, Fraction(1, 10))
        assert root_gap_exceeds(x, y, Fraction(-1, 10))


# -- W products -------------------------------------------------------------


def test_W_coordinate_flats_is_one():
    # the worked normalization example: n = 2, each of the three 2-flats
    # contributes |D_p| = C(4,2) = 6 over normalizer C(4,2) -> W = 1
    cfg = generate("coordinate-flats", field=F, d=6, k=2)
    h = Handicap.zero(range(1))
    W = compute_W(cfg, h, 2)
    assert W[0] == RootValue(Fraction(1))


def test_W_weights_divide():
    cfg = generate("coordinate-flats", field=F, d=6, k=2)
    h = Handicap.zero(range(1))
    W = compute_W(cfg, h, 2, weights=[2])
    assert W[0] == RootValue(Fraction(1, 2))


def test_W_zero_when_no_rows_remain():
    # a huge handicap on the single joint pushes all its steps past the
    # cap on other joints... with one joint, drive its own count to zero
    cfg = generate("grid", field=F, seed=0, t=2)
    ids = list(range(4))
    h = Handicap({0: -10, 1: 0, 2: 0, 3: 0}, ids)
    W = compute_W(cfg, h, 2)
    assert W[0].is_zero()
    assert all(not W[j].is_zero() for j in (1, 2, 3))


def test_W_shift_invariance():
    cfg = grid_line_composite(F, 2, seed=2)
    ids = list(range(len(cfg.joints)))
    h = Handicap({j: (j % 3) - 1 for j in ids}, ids)
    a = compute_W(cfg, h, 3)
    b = compute_W(cfg, h.shifted(4), 3)
    assert a == b


# -- descent ----------------------------------------------------------------


def test_balance_single_joint_trivial():
    cfg = generate("coordinate-flats", field=F, d=6, k=2)
    state = balance(cfg, 2)
    assert state.status == "balanced"
    assert state.iteration == 0
    assert state.alpha.alpha == {0: 0}


def test_balance_grid_wide_tau_no_moves():
    # greedy allocation gives the first grid joint 3 of the 6 rows, the
    # rest 1 each: W = (1/2, 1/6, 1/6, 1/6).  With tau above the 1/3 gap
    # nothing moves
    cfg = generate("grid", field=F, seed=0, t=2)
    state = balance(cfg, 2, tau=Fraction(1, 2))
    assert state.status == "balanced"
    assert state.iteration == 0
    assert set(state.alpha.alpha.values()) == {0}
    assert [w.Q for _, w in state.sortedW] == [
        Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)]


def test_balance_grid_narrow_tau_reports_cap_hit():
    # below the 1/3 gap no handicap move can change the sorted multiset
    # (decrements only rotate which joint holds the big block), so the
    # descent stops and reports it instead of looping
    cfg = generate("grid", field=F, seed=0, t=2)
    state = balance(cfg, 2, tau=Fraction(1, 100))
    assert state.status == "cap-hit"
    assert state.log and not state.log[-1]["changed"]


def test_balance_disconnected_raises():
    from jointslab.config import Family
    from jointslab.varieties import VarietySpec

    def flat(axes, point):
        dirs = []
        for a in axes:
            e = [0] * 6
            e[a] = 1
            dirs.append(tuple(e))
        return VarietySpec(kind="flat", ambient=6, dim=2, degree=1,
                           point=point, directions=tuple(dirs))

    q = tuple([100] * 6)
    fam = Family(k=2, m=3, members=[
        flat((0, 1), (0,) * 6), flat((2, 3), (0,) * 6), flat((4, 5), (0,) * 6),
        flat((0, 1), q), flat((2, 3), q), flat((4, 5), q),
    ])
    cfg = detect_joints(F, [fam], candidates=[(0,) * 6, q])
    assert len(connected_components(cfg)) == 2
    with pytest.raises(Disconnected):
        balance(cfg, 2)


def test_balance_composite_moves_and_invariant():
    # grid + line on one plane: line points start with larger W; the
    # descent decrements grid handicaps until the sorted gaps close
    cfg = grid_line_composite(F, 3, seed=4)
    n = 6
    tau = Fraction(3, 56)
    state = balance(cfg, n, tau=tau)
    assert state.status == "balanced"
    assert state.iteration >= 1
    grid_ids = list(range(9))
    line_ids = list(range(9, 18))
    mean = lambda ids: Fraction(sum(state.alpha.of(j) for j in ids), len(ids))
    assert mean(line_ids) > mean(grid_ids)
    # final state: no consecutive sorted gap exceeds tau
    vals = [w for _, w in state.sortedW]
    for a, b in zip(vals, vals[1:]):
        assert not root_gap_exceeds(a, b, tau)
    # every accepted iteration lowered the sorted multiset
    assert all(row["changed"] for row in state.log)
    assert all(row["min_W"] <= row["max_W"] for row in state.log)
    # the returned ledgers are those of the accepted handicap
    assert ledgers_to_csv(list(state.ledgers.values())) == ledgers_to_csv(
        list(build_all_ledgers(cfg, state.alpha, n).values()))


def test_balance_module_is_not_shadowed():
    import jointslab.balance as B

    assert inspect.ismodule(B)
    assert B.balance is balance


def parabola_circle_config():
    """Over Q: the parabola x2 = x1^2 (a graph), the circle
    x1^2 + x2^2 = 2 x2 (a hypersurface) and three lines, meeting at the
    joints (0, 0), (1, 1) and (-1, 1)."""
    def line(point, direction):
        return VarietySpec(kind="flat", ambient=2, dim=1, degree=1,
                           point=point, directions=(direction,))

    parabola = VarietySpec(kind="graph", ambient=2, dim=1, degree=2,
                           frame=AffineMap.identity(FQ, 2),
                           graph_polys=(parse_poly("1 * x1^2", FQ, 1),))
    circle = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=2,
                         point=(0, 0), directions=((1, 0), (0, 1)),
                         surface_poly=parse_poly("1 * x1^2 + 1 * x2^2 + -2 * x2", FQ, 2))
    members = [parabola, circle, line((0, 1), (1, 0)), line((0, 0), (1, 1)), line((0, 0), (0, 1))]
    return detect_joints(FQ, [Family(k=1, m=2, members=members)],
                         candidates=[(0, 0), (1, 1), (-1, 1)])


@pytest.mark.parametrize("make, kinds, n, tau, cap, reuses", [
    (lambda: grid_line_composite(F, 3, seed=4), {"flat"}, 6, Fraction(3, 56), 10**4, False),
    (lambda: grid_line_composite(F, 2, seed=4), {"flat"}, 8, Fraction(1, 224), 10**4, True),
    (parabola_circle_config, {"flat", "graph", "hypersurface"}, 4, Fraction(1, 1000), 12, True),
], ids=["grid-line", "grid-line-cap-hit", "curved-q"])
def test_descent_ledgers_match_fresh_builds(monkeypatch, make, kinds, n, tau, cap, reuses):
    # The descent builds each chart once, shares its rows across the
    # handicaps it tries, and builds a member's ledger once per step order.
    # At every handicap compute_W sees, the ledgers must equal fresh
    # builds, and the descent must take the steps it takes when every
    # ledger is built afresh.
    import jointslab.balance as B
    import jointslab.basis as basis_module

    cfg = make()
    members = list(cfg.all_members())
    seen, built, charts_made = [], [], []
    real_W, real_build, real_chart = B.compute_W, B.build_ledger, basis_module.make_chart

    def recording_W(cfg_, h, n_, weights=None, ledgers=None):
        seen.append((Handicap(dict(h.alpha), list(h.preassigned)), dict(ledgers)))
        return real_W(cfg_, h, n_, weights, ledgers=ledgers)

    def recording_build(cfg_, ref, h, n_, charts=None, cap=None):
        order = step_order(h, cfg.joints_on(ref), default_cap(cfg.member(ref), n_))
        built.append((ref, tuple(order)))
        return real_build(cfg_, ref, h, n_, charts=charts, cap=cap)

    def counting_chart(*args, **kwargs):
        charts_made.append(args[1])
        return real_chart(*args, **kwargs)

    monkeypatch.setattr(B, "compute_W", recording_W)
    monkeypatch.setattr(B, "build_ledger", recording_build)
    monkeypatch.setattr(basis_module, "make_chart", counting_chart)
    state = B.balance(cfg, n, tau=tau, cap=cap)
    attempts, builds, charts = list(seen), list(built), list(charts_made)
    # the same descent with no two step orders comparing equal, so that
    # every ledger is built afresh
    monkeypatch.setattr(B, "step_order", lambda *args: [object()])
    reference = B.balance(cfg, n, tau=tau, cap=cap)
    monkeypatch.undo()

    assert {cfg.member(ref).kind for ref in members} == kinds
    assert len(seen) == 2 * len(attempts)  # the rebuild count counts attempts
    assert (state.status, state.iteration, state.log, state.alpha, state.sortedW) == (
        reference.status, reference.iteration, reference.log, reference.alpha,
        reference.sortedW)
    assert len({tuple(sorted(h.alpha.items())) for h, _ in attempts}) > 1
    assert len(charts) == sum(len(cfg.joints_on(ref)) for ref in members)
    # one build per distinct (member, step order) among the attempts
    orders = {(ref, tuple(step_order(h, cfg.joints_on(ref), default_cap(cfg.member(ref), n))))
              for h, _ in attempts for ref in members}
    assert len(set(builds)) == len(builds) == len(orders) and set(builds) == orders
    assert (len(builds) < len(attempts) * len(members)) == reuses
    for h, ledgers in attempts:
        fresh = build_all_ledgers(cfg, h, n)
        for ref in members:
            led, new = ledgers[ref], fresh[ref]
            assert ledgers_to_csv([led]) == ledgers_to_csv([new])
            assert [led.selected_gammas(j) for j in cfg.joints_on(ref)] == [
                new.selected_gammas(j) for j in cfg.joints_on(ref)]
            assert [row.coeffs for st in led.steps for row in st.rows] == [
                row.coeffs for st in new.steps for row in st.rows]
    assert ledgers_to_csv(list(state.ledgers.values())) == ledgers_to_csv(
        list(build_all_ledgers(cfg, state.alpha, n).values()))


def test_default_tau_value():
    cfg = generate("grid", field=F, seed=0, t=2)
    assert default_tau(cfg, 4) == Fraction(8 * 1 * 1, 4)
