"""Exact root arithmetic and handicap-balancing descent."""

import functools
import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointslab.balance import (
    RootValue,
    _sorted_desc,
    balance,
    build_all_ledgers,
    compute_W,
    default_tau,
    exceeds,
    integer_nth_root,
)
from jointslab.basis import Handicap, build_ledger, ledgers_to_csv
from jointslab.config import Family, connected_components, detect_joints, generate, grid_line_composite
from jointslab.errors import Disconnected
from jointslab.field import DEFAULT_PRIME, FieldSpec
from jointslab.poly import parse_poly
from jointslab.varieties import VarietySpec

from oracles import W_by_tuples, detect_by_is_joint, identity_map, sorted_desc_by_cmp

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


radicands = st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**6))


@given(a=radicands, b=radicands, m1=st.integers(1, 6), m2=st.integers(1, 6),
       k=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_root_value_cmp_matches_cross_powers(a, b, m1, m2, k):
    # the plain cross-power comparison Q1**M2 against Q2**M1, on mixed
    # root indices and on values written with a common factor k in both
    for x, y in ((RootValue(a, m1), RootValue(b, m2)),
                 (RootValue(a, m1), RootValue(a ** k, m1 * k)),
                 (RootValue(a ** m2, m1 * m2), RootValue(b ** m1, m1 * m2))):
        u, v = x.Q ** y.M, y.Q ** x.M
        assert x.cmp(y) == (u > v) - (u < v) == -y.cmp(x)


def test_root_value_rational_and_brackets():
    assert RootValue(Fraction(27, 8), 3).to_rational() == Fraction(3, 2)
    assert RootValue(Fraction(2), 2).to_rational() is None
    lo, hi = RootValue(Fraction(2), 2).brackets(64)
    assert lo <= hi and hi - lo <= Fraction(1, 2**64)
    assert lo * lo <= 2 <= hi * hi
    # approx is correctly rounded, exact where the value is rational
    assert RootValue(Fraction(2), 2).approx() == math.sqrt(2)
    assert RootValue(Fraction(1, 15) ** 3, 3).approx() == 1 / 15
    assert RootValue(Fraction(0), 5).approx() == 0.0


def test_root_gap_exceeds():
    sqrt2 = RootValue(Fraction(2), 2)
    one = RootValue(Fraction(1))
    # sqrt(2) - 1 = 0.4142...
    assert exceeds([sqrt2], [one], Fraction(2, 5))[0]
    assert not exceeds([sqrt2], [one], Fraction(1, 2))[0]
    # irrational-vs-irrational with a rational threshold
    sqrt8 = RootValue(Fraction(8), 2)
    assert exceeds([sqrt8], [sqrt2], Fraction(7, 5))[0]
    assert not exceeds([sqrt8], [sqrt2], RootValue(Fraction(2), 2).brackets(8)[1])[0]


def test_root_gap_exceeds_equal_irrationals():
    # 2^(1/2) and 8^(1/6) are the same irrational number: no bracket
    # width ever separates their difference from 0
    a, b = RootValue(Fraction(2), 2), RootValue(Fraction(8), 6)
    for x, y in ((a, b), (b, a)):
        assert exceeds([x], [y], Fraction(0)) == (False, 48)
        assert not exceeds([x], [y], Fraction(1, 10))[0]
        assert exceeds([x], [y], Fraction(-1, 10))[0]


@given(c=st.integers(1, 30), M=st.integers(1, 4), a=st.integers(1, 5), b=st.integers(1, 5),
       q=st.integers(2, 30), k1=st.integers(1, 3), k2=st.integers(1, 3),
       t=st.fractions(min_value=0, max_value=10, max_denominator=50),
       eps_bits=st.integers(1, 300), swap=st.booleans(), rational=st.booleans())
@settings(max_examples=80, deadline=None)
def test_exceeds_is_exact_at_planted_equalities(c, M, a, b, q, k1, k2, t, eps_bits, swap,
                                                rational):
    # (a^M c)^(1/M) + (b^M c)^(1/M) = ((a + b)^M c)^(1/M), as sqrt(12) +
    # sqrt(3) = sqrt(27); q^(1/M) written as (q^k)^(1/(M k)) for two k;
    # and a rational t on the left moved into tau.  The rational case has
    # only rational terms, one of them an M-th root of a perfect M-th
    # power: a c + b/q + t on the left, (a c q + b)/q on the right.
    def root(Q, m):
        return RootValue(Fraction(Q), m)

    if rational:
        pos = [root((a * c) ** M, M), root(Fraction(b, q), 1), root(t, 1)]
        neg = [root(Fraction(a * c * q + b, q), 1)]
    else:
        pos = [root(a**M * c, M), root(b**M * c, M), root(q**k1, M * k1), root(t, 1)]
        neg = [root((a + b) ** M * c, M), root(q**k2, M * k2)]
    tau = t
    if swap:
        pos, neg, tau = neg, pos, -tau
    assert exceeds(pos, neg, tau) == (False, 48)
    # the difference is rational, so the zero test decides it however
    # close it is to tau
    eps = Fraction(1, 2**eps_bits)
    assert exceeds(pos, neg, tau - eps) == (True, 48)
    assert exceeds(pos, neg, tau + eps) == (False, 48)
    assert exceeds(pos + [RootValue(eps)], neg, tau) == (True, 48)
    assert exceeds(pos, neg + [RootValue(eps)], tau) == (False, 48)


# -- W products -------------------------------------------------------------


def test_W_coordinate_flats_is_one():
    # the worked normalization example: n = 2, each of the three 2-flats
    # contributes |D_p| = C(4,2) = 6 over normalizer C(4,2) -> W = 1
    cfg = generate("coordinate-flats", field=F, d=6, k=2)
    h = Handicap.zero(range(1))
    W = compute_W(cfg, build_all_ledgers(cfg, h, 2), 2)
    assert W[0] == RootValue(Fraction(1))


def test_W_from_member_counts_is_the_tuple_product():
    # compute_W takes one power per member, to the number of the joint's
    # tuples through it; the oracle multiplies one factor per (tuple,
    # member), over the tuples that ``is_joint`` finds tuple by tuple.
    # Radicands and root indices are equal as Fractions and ints
    cfg = generate("generic-hyperplanes", field=F, d=6, h=7)
    ids = list(range(len(cfg.joints)))
    tuples = [q for _, q, _ in detect_by_is_joint(F, cfg.families, cfg.joints)]
    assert [cfg.M(j) for j in ids] == [len(q) for q in tuples] == [15] * 7
    for h in (Handicap.zero(ids), Handicap({j: (-1) ** j * j for j in ids}, ids)):
        ledgers = build_all_ledgers(cfg, h, 2)
        got, want = compute_W(cfg, ledgers, 2), W_by_tuples(cfg, tuples, ledgers, 2)
        assert [(j, w.Q, w.M) for j, w in got.items()] == [(j, w.Q, w.M) for j, w in want.items()]
        assert len({w.Q for w in got.values()}) > 1


def test_W_zero_when_no_rows_remain():
    # a huge handicap on the single joint pushes all its steps past the
    # cap on other joints... with one joint, drive its own count to zero
    cfg = generate("grid", field=F, seed=0, t=2)
    ids = list(range(4))
    h = Handicap({0: -10, 1: 0, 2: 0, 3: 0}, ids)
    W = compute_W(cfg, build_all_ledgers(cfg, h, 2), 2)
    assert W[0].is_zero()
    assert all(not W[j].is_zero() for j in (1, 2, 3))


def test_W_shift_invariance():
    cfg = grid_line_composite(F, 2, seed=2)
    ids = list(range(len(cfg.joints)))
    h = Handicap({j: (j % 3) - 1 for j in ids}, ids)
    a = compute_W(cfg, build_all_ledgers(cfg, h, 3), 3)
    shifted = Handicap({j: a + 4 for j, a in h.alpha.items()}, ids)
    b = compute_W(cfg, build_all_ledgers(cfg, shifted, 3), 3)
    assert a == b


# radicands with values that only part past a float's precision (1 and
# 1 + 2^-60 round to the same float, at every root index)
RADICANDS = [Fraction(0), Fraction(1), 1 + Fraction(1, 2**60), 1 - Fraction(1, 2**60),
             Fraction(2), Fraction(3, 7), Fraction(4), Fraction(9, 4)]


def root_values():
    """RootValues q^(1/M), each drawn as (q^e)^(1/(M e)): so equal values
    come at different root indices, such as RootValue(4, 2) and
    RootValue(2, 1); zeros, rational and irrational roots among them."""
    q = st.one_of(st.sampled_from(RADICANDS), st.fractions(0, 20, max_denominator=30))
    return st.builds(lambda q, m, e: RootValue(q**e, m * e), q, st.integers(1, 3), st.integers(1, 3))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_sorted_desc_matches_the_exact_comparator(data):
    values = data.draw(st.lists(root_values(), max_size=8), label="values")
    joints = data.draw(st.permutations(range(len(values))), label="joints")
    W = dict(zip(joints, values))
    got, want = _sorted_desc(W), sorted_desc_by_cmp(W)
    assert [j for j, _ in got] == [j for j, _ in want]
    assert all(W[j] is w for j, w in got)


def test_sorted_desc_orders_equal_floats_exactly():
    # 1 + 2^-60 > 1 although both W round to 1.0; 4^(1/2) = 2 ties 2^(1/1)
    # by joint; sqrt(2) sits below both and 0 at the end
    one, above = RootValue(Fraction(1)), RootValue(1 + Fraction(1, 2**60), 2)
    assert above.approx() == one.approx() == 1.0
    W = {0: RootValue(Fraction(0)), 1: one, 2: RootValue(Fraction(2), 2), 3: above,
         4: RootValue(Fraction(4), 2), 5: RootValue(Fraction(2))}
    assert [j for j, _ in _sorted_desc(W)] == [j for j, _ in sorted_desc_by_cmp(W)] == [
        4, 5, 2, 3, 1, 0]


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
    W = compute_W(cfg, state.ledgers, 2)
    assert sorted((w.Q for w in W.values()), reverse=True) == [
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
    vals = sorted(compute_W(cfg, state.ledgers, n).values(), reverse=True)
    for a, b in zip(vals, vals[1:]):
        assert not exceeds([a], [b], tau)[0]
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
                           frame=identity_map(FQ, 2),
                           graph_polys=(parse_poly("1 * x1^2", FQ, 1),))
    circle = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=2,
                         point=(0, 0), directions=((1, 0), (0, 1)),
                         surface_poly=parse_poly("1 * x1^2 + 1 * x2^2 + -2 * x2", FQ, 2))
    members = [parabola, circle, line((0, 1), (1, 0)), line((0, 0), (1, 1)), line((0, 0), (0, 1))]
    return detect_joints(FQ, [Family(k=1, m=2, members=members)],
                         candidates=[(0, 0), (1, 1), (-1, 1)])


@pytest.mark.parametrize("make, kinds, n, tau, cap, saves", [
    (lambda: grid_line_composite(F, 3, seed=4), {"flat"}, 6, Fraction(3, 56), 10**4, False),
    (lambda: grid_line_composite(F, 2, seed=4), {"flat"}, 8, Fraction(1, 224), 10**4, True),
    (parabola_circle_config, {"flat", "graph", "hypersurface"}, 4, Fraction(1, 1000), 12, True),
], ids=["grid-line", "grid-line-cap-hit", "curved-q"])
def test_descent_ledgers_match_fresh_builds(monkeypatch, make, kinds, n, tau, cap, saves):
    # The descent builds no chart: its ledgers read the configuration's,
    # share their rows across the handicaps it tries, and keep each
    # member's ledger walks, which later builds reuse or resume.  At every
    # handicap it tries, the ledgers must equal fresh builds, and the
    # descent must take the steps it takes when every ledger and W is built
    # afresh.
    import jointslab.balance as B
    import jointslab.config as config_module
    import jointslab.varieties as varieties_module
    from jointslab.linalg import IncrementalRowReducer

    cfg = make()
    members = list(cfg.all_members())
    built, charts_made, W_calls, inserts = [], [], [], [0]
    real_W, real_build, real_chart = B.compute_W, B.build_ledger, varieties_module.chart_at
    real_insert = IncrementalRowReducer.insert

    def recording_W(cfg_, ledgers, n_):
        W_calls.append(dict(ledgers))
        return real_W(cfg_, ledgers, n_)

    def recording_build(cfg_, ref, h, n_, cap=None, walks=None):
        led = real_build(cfg_, ref, h, n_, cap=cap, walks=walks)
        built.append((ref, Handicap(dict(h.alpha), list(h.preassigned)), led))
        return led

    def counting_chart(*args, **kwargs):
        charts_made.append(args[1])
        return real_chart(*args, **kwargs)

    def counting_insert(self, row):
        inserts[0] += 1
        return real_insert(self, row)

    monkeypatch.setattr(B, "compute_W", recording_W)
    monkeypatch.setattr(B, "build_ledger", recording_build)
    for module in (config_module, varieties_module):
        monkeypatch.setattr(module, "chart_at", counting_chart)
    monkeypatch.setattr(IncrementalRowReducer, "insert", counting_insert)
    state = B.balance(cfg, n, tau=tau, cap=cap)
    builds, W_seen, charts, stored_inserts = list(built), list(W_calls), list(charts_made), inserts[0]
    # the same descent with no walk store, so that every ledger and every
    # W is built afresh
    built.clear()
    W_calls.clear()
    inserts[0] = 0
    monkeypatch.setattr(B, "build_ledger", lambda *args, walks=None, **kwargs: recording_build(
        *args, walks=None, **kwargs))
    reference = B.balance(cfg, n, tau=tau, cap=cap)
    fresh_builds, fresh_W, fresh_inserts = list(built), list(W_calls), inserts[0]
    monkeypatch.undo()

    assert {cfg.member(ref).kind for ref in members} == kinds
    # the rebuild count counts attempts, reused ones included
    assert len(builds) == len(fresh_builds) == len(fresh_W) * len(members)
    assert (state.status, state.iteration, state.log, state.alpha) == (
        reference.status, reference.iteration, reference.log, reference.alpha)
    assert compute_W(cfg, state.ledgers, n) == compute_W(cfg, reference.ledgers, n)
    attempts = [(builds[i][1], {ref: led for ref, _, led in builds[i:i + len(members)]})
                for i in range(0, len(builds), len(members))]
    assert len({tuple(sorted(h.alpha.items())) for h, _ in attempts}) > 1
    assert charts == []
    # W is computed again exactly when some ledger is not the one before
    changed = [ledgers for i, (_, ledgers) in enumerate(attempts)
               if i == 0 or any(ledgers[ref] is not attempts[i - 1][1][ref] for ref in members)]
    assert len(W_seen) == len(changed)
    assert all(seen[ref] is ledgers[ref] for seen, ledgers in zip(W_seen, changed) for ref in members)
    assert (stored_inserts < fresh_inserts) == saves
    assert stored_inserts <= fresh_inserts
    for h, ledgers in attempts:
        fresh = build_all_ledgers(cfg, h, n)
        for ref in members:
            led, new = ledgers[ref], fresh[ref]
            assert ledgers_to_csv([led]) == ledgers_to_csv([new])
            assert [led.selected_gammas(j) for j in cfg.joints_on(ref)] == [
                new.selected_gammas(j) for j in cfg.joints_on(ref)]
            # the gammas picked at each step; on one chart at one n, equal
            # gammas key the same memo row
            assert [(st.joint, st.order, st.gammas) for st in led.steps] == [
                (st.joint, st.order, st.gammas) for st in new.steps]
    assert ledgers_to_csv(list(state.ledgers.values())) == ledgers_to_csv(
        list(build_all_ledgers(cfg, state.alpha, n).values()))


# -- ledger walk store -------------------------------------------------------


WALK_CONFIGS = {  # name -> (config maker, n)
    "grid-line": (lambda: grid_line_composite(F, 3, seed=4), 6),
    "grid-line-cap-hit": (lambda: grid_line_composite(F, 2), 8),
    "curved-q": (parabola_circle_config, 4),
}


@functools.cache
def walk_config(name):
    make, n = WALK_CONFIGS[name]
    return make(), n


def build_with_walk_store(cfg, n, handicaps, cap=None) -> list:
    """Build every member's ledger at each handicap in turn, sharing one
    walk store per member, and check each ledger against a fresh build.
    Returns how each build went: "reuse" (a stored ledger), "resume" (a
    stored walk's prefix) or "fresh"."""
    walks = {ref: [] for ref in cfg.all_members()}
    kinds = []
    for h in handicaps:
        for ref in walks:
            before = list(walks[ref])
            led = build_ledger(cfg, ref, h, n, cap=cap, walks=walks[ref])
            if len(walks[ref]) == len(before):
                assert any(led is walk.ledger for walk in before)
                kinds.append("reuse")
            else:
                walk = walks[ref][-1]
                assert walk.ledger is led and len(walks[ref]) == len(before) + 1
                resumed = walk.picks and any(
                    old.picks and walk.picks[0] is old.picks[0] for old in before)
                kinds.append("resume" if resumed else "fresh")
            new = build_ledger(cfg, ref, h, n, cap=cap, walks=None)
            on = cfg.joints_on(ref)
            assert ledgers_to_csv([led]) == ledgers_to_csv([new])
            assert [led.selected_gammas(j) for j in on] == [new.selected_gammas(j) for j in on]
            assert [(st.joint, st.order, st.gammas) for st in led.steps] == [
                (st.joint, st.order, st.gammas) for st in new.steps]
            assert (led.rank, led.cap_hit) == (new.rank, new.cap_hit)
    return kinds


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_walk_store_ledgers_match_fresh_builds(data):
    # handicap sequences shaped like a descent's attempts: each handicap
    # is an earlier one with a block of joints lowered by a step (an
    # empty block repeats it), under one preassigned order
    cfg, n = walk_config(data.draw(st.sampled_from(sorted(WALK_CONFIGS)), label="config"))
    cap = data.draw(st.sampled_from([None, 1, 3]), label="cap")
    ids = list(range(len(cfg.joints)))
    order = data.draw(st.permutations(ids), label="preassigned")
    handicaps = [Handicap({j: data.draw(st.integers(-2, 2)) for j in ids}, list(order))]
    for _ in range(data.draw(st.integers(1, 6), label="attempts")):
        base = data.draw(st.sampled_from(handicaps), label="base")
        block = data.draw(st.sets(st.sampled_from(ids)), label="block")
        step = data.draw(st.sampled_from([1, 2, 4, 16]), label="step")
        handicaps.append(Handicap(
            {j: a - step * (j in block) for j, a in base.alpha.items()}, list(order)))
    build_with_walk_store(cfg, n, handicaps, cap)


@pytest.mark.parametrize("name", sorted(WALK_CONFIGS))
def test_walk_store_reuses_and_resumes(name):
    # lowering the last joint's handicap moves its steps (last, r) later,
    # so the build at the lowered handicap resumes a walk at the zero
    # handicap, and repeating either handicap reuses a stored ledger
    cfg, n = walk_config(name)
    ids = list(range(len(cfg.joints)))
    zero = Handicap.zero(ids)
    lowered = Handicap({j: -(j == ids[-1]) for j in ids}, ids)
    kinds = build_with_walk_store(cfg, n, [zero, lowered, zero, lowered])
    assert {"reuse", "resume"} <= set(kinds)
    assert set(kinds[len(kinds) // 2:]) == {"reuse"}


def test_default_tau_value():
    cfg = generate("grid", field=F, seed=0, t=2)
    assert default_tau(cfg, 4) == Fraction(8 * 1 * 1, 4)
