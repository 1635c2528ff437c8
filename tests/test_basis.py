"""Priority order, vanishing-condition ledgers, T-space dimensions."""

import itertools
import random
from fractions import Fraction

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
from jointslab.linalg import IncrementalRowReducer, rank
from jointslab.poly import AffineMap, Polynomial, monomials_upto, parse_poly, taylor_shift
from jointslab.varieties import (
    VarietySpec,
    derivative_operator,
    dim_regular_functions,
    make_chart,
)

from oracles import (
    ambient_ledger,
    carrier_coordinates,
    identity_map,
    local_expansion,
    nullspace,
    restricted,
    restriction_matrix,
    v_vector,
)

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
    monos = monomials_upto(2, 2)
    expected = [Polynomial.monomial(FQ, 2, e).evaluate([2, 3]) for e in monos]
    assert rows == {(0, 0): expected}


def test_flat_rows_order_one():
    C = plane_charts(FQ, [(0, 0)])[0]
    rows = functional_rows(C, 1, 2)
    assert list(rows) == [(1, 0), (0, 1)]
    monos = monomials_upto(2, 2)
    got = {tuple(r) for r in rows.values()}
    ex1 = tuple(FQ.one if e == (1, 0) else FQ.zero for e in monos)
    ex2 = tuple(FQ.one if e == (0, 1) else FQ.zero for e in monos)
    assert got == {ex1, ex2}


def test_circle_row_order_two():
    E = parse_poly("1 * x1^2 + 1 * x2^2 + -1 * x2", FQ, 2)
    V = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=2,
                    point=(0, 0), directions=((1, 0), (0, 1)), surface_poly=E)
    C = make_chart(V, (0, 0))
    rows = functional_rows(C, 2, 2)
    monos = monomials_upto(2, 2)
    # D^2 = Hasse^(2,0) + Hasse^(0,1): hits the x1^2 and x2 coefficients
    expected = [FQ.one if e in ((2, 0), (0, 1)) else FQ.zero for e in monos]
    assert rows == {(2,): expected}


def test_rows_are_built_once_per_chart_and_not_mutated():
    C = plane_charts(F, [(3, 5)])[0]
    rows = functional_rows(C, 2, 3)
    again = functional_rows(C, 2, 3)
    assert list(again) == list(rows)
    assert all(again[gamma] is row for gamma, row in rows.items())
    assert {len(row) for row in functional_rows(C, 2, 4).values()} == {binom(6, 2)}
    assert rows == functional_rows(plane_charts(F, [(3, 5)])[0], 2, 3)
    # reduce them against a store that already holds other rows
    red = IncrementalRowReducer(F)
    for r in (0, 1):
        for row in functional_rows(C, r, 3).values():
            red.insert(row)
    before = [list(row) for row in rows.values()]
    for row in rows.values():
        red.insert(row)
    assert list(rows.values()) == before


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
            assert rows == expected[r]
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
    # the same circle in a plane of F^3: its rows read the plane's two
    # coordinates, C(3 + 2, 2) columns instead of C(3 + 3, 3)
    conic = VarietySpec(kind="hypersurface", ambient=3, dim=1, degree=2,
                        point=(1, 0, 1), directions=((1, 1, 0), (0, 1, 2)),
                        surface_poly=circle.surface_poly)
    out["plane-conic"] = (make_chart(conic, (4, 7, 9), FQ), 3)
    return out


@pytest.mark.parametrize("case", ["F2", "F3", "Fp", "Q", "graph-curve", "graph-surface",
                                  "circle", "plane-conic"])
def test_rows_match_operator_and_expansion_oracles(case):
    # ambient row entry for x^delta = D^gamma x^delta (center)
    # = [t^gamma] x^delta(phi(t)).  A chart's row, over the monomials of
    # the coordinates u of the space it reads rows in, once multiplied by
    # the matrix of the restriction g -> g(base + D u), is it times
    # lambda^|gamma|, lambda the chart's row scale: 1 for a flat
    C, n = oracle_charts()[case]
    Ff, V = C.field, C.owner
    # the cubic's Taylor shift has x1^2 coefficient 1/2; the circle's
    # tangent (-4/3, 1) gives 3, and its in-flat equation in integers,
    # 9 s^2 - 24 t s + 25 t^2 + 54 s, the s-coefficient 54
    assert C.scale == (1 if Ff.p else {"graph-curve": 2, "circle": 3 * 54,
                                       "plane-conic": 3 * 54}.get(case, 1))
    monos = monomials_upto(V.ambient, n)
    expansions = [local_expansion(C, Polynomial.monomial(Ff, V.ambient, delta), 5)
                  for delta in monos]
    R = restriction_matrix(V, Ff, n)
    for r in range(6):
        for gamma, row in functional_rows(C, r, n).items():
            assert len(row) == len(R)
            row = restricted(Ff, row, R)
            scalar = Ff.of(C.row_scale ** r)
            D = derivative_operator(C, gamma)
            operator = [D.monomial_functional(delta, C.center) for delta in monos]
            assert row == [Ff.mul(scalar, c) for c in operator]
            assert row == [Ff.mul(scalar, x.coefficient(gamma)) for x in expansions]


def flats_through(Ff, rng, points, k, count, shift):
    """count k-flats of F^d, each through k + 1 of the points with
    independent differences, based off the first one along its
    directions by coefficients that ``shift`` draws."""
    out = []
    while len(out) < count:
        through = rng.sample(points, k + 1)
        dirs = [tuple(Ff.sub(Ff.of(a), Ff.of(b)) for a, b in zip(q, through[0]))
                for q in through[1:]]
        if rank(Ff, dirs) < k:
            continue
        c = [shift(rng) for _ in range(k)]
        base = tuple(Ff.add(Ff.of(x), sum((Ff.mul(ci, u[i]) for ci, u in zip(c, dirs)), Ff.zero))
                     for i, x in enumerate(through[0]))
        out.append(VarietySpec(kind="flat", ambient=len(base), dim=k, degree=1, point=base,
                               directions=tuple(dirs)))
    return out


def ledger_oracle_configs():
    """name -> (config, n): planes and lines of F^3 through four points
    that span it (k < d) and the plane F^2 with a sheared frame (k = d),
    over F_2, F_3, F_p and Q.  Over Q the flats' bases sit half a
    direction off the points, so some joint's u_p is not integral."""
    out = {}
    for name, Ff in (("F2", FieldSpec("prime", 2)), ("F3", FieldSpec("prime", 3)),
                     ("Fp", F), ("Q", FQ)):
        rng = random.Random(name)
        shift = ((lambda g: FQ.of(f"{g.randint(-3, 3)}/2")) if name == "Q"
                 else (lambda g: Ff.of(g.randrange(7))))
        size = 2 if Ff.p == 2 else 3
        pts = list(itertools.product(range(size), repeat=3))
        joints = rng.sample(pts, 4)
        while rank(Ff, [[Ff.of(a - b) for a, b in zip(q, joints[0])] for q in joints[1:]]) < 3:
            joints = rng.sample(pts, 4)  # affinely independent, so lines cross planes
        families = [Family(k=2, m=1, members=flats_through(Ff, rng, joints, 2, 3, shift)),
                    Family(k=1, m=1, members=flats_through(Ff, rng, joints, 1, 4, shift))]
        out[f"{name}-k<d"] = (detect_joints(Ff, families, candidates=pts), 3)
        plane = VarietySpec(kind="flat", ambient=2, dim=2, degree=1, point=(1, 2),
                            directions=((1, 1), (2, 1)))
        grid = list(itertools.product(range(size), repeat=2))
        out[f"{name}-k=d"] = (detect_joints(Ff, [Family(k=2, m=1, members=[plane])],
                                            candidates=grid), 3)
    return out


@pytest.mark.parametrize("case", [f"{f}-{k}" for f in ("F2", "F3", "Fp", "Q")
                                  for k in ("k<d", "k=d")])
def test_flat_ledgers_match_the_ambient_row_oracle(case):
    # a flat's ledger reads rows over F[u]_{<= n}; walking the same steps
    # on ambient rows picks the same gammas, under two handicaps and a cap
    # of 1, and every row picked, times the restriction matrix, is the
    # ambient row up to lambda^|gamma|
    cfg, n = ledger_oracle_configs()[case]
    Ff, ids = cfg.field, list(range(len(cfg.joints)))
    assert len(ids) >= 2
    rng = random.Random(case)
    order = rng.sample(ids, len(ids))
    handicaps = [Handicap.zero(ids), Handicap({j: rng.randint(-2, 2) for j in ids}, order)]
    capped = 0
    if case == "Q-k<d":
        # a joint whose position along one of its flats is not integral
        assert any(type(z) is Fraction
                   for j, p in enumerate(cfg.joints) for ref in cfg.charts[j]
                   for z in carrier_coordinates(cfg.member(ref), p, Ff))
    for f, fam in enumerate(cfg.families):
        for m, V in enumerate(fam.members):
            ref, walks = (f, m), {None: [], 1: []}
            on = cfg.joints_on(ref)
            if len(on) > 1:
                # the handicap reorders this member's steps
                assert step_order(handicaps[0], on, 2) != step_order(handicaps[1], on, 2)
            R = restriction_matrix(V, Ff, n)
            for h, cap in ((handicaps[0], None), (handicaps[1], None), (handicaps[1], 1)):
                led = build_ledger(cfg, ref, h, n, cap, walks[cap])
                oracle, rows = ambient_ledger(cfg, ref, h, n, cap)
                capped += led.cap_hit
                assert [(st.joint, st.order, st.gammas) for st in led.steps] == [
                    (st.joint, st.order, st.gammas) for st in oracle.steps]
                assert (led.counts, led.rank, led.cap_hit) == (
                    oracle.counts, oracle.rank, oracle.cap_hit)
                for st in led.steps:
                    C = cfg.charts[st.joint][ref]
                    memo = C.expansion_memos[n]
                    for gamma in st.gammas:
                        assert len(memo[gamma]) == binom(n + V.dim, V.dim)
                        scalar = Ff.of(C.scale ** sum(gamma))
                        assert [Ff.mul(scalar, c) for c in restricted(Ff, memo[gamma], R)] == [
                            Ff.of(c) for c in rows[st.joint, gamma]]
    # a plane of F^3 through at most three joints has at most 9 rows of
    # order <= 1, short of C(3 + 2, 2) = 10
    assert capped or case.endswith("k=d")


def conic_in_a_plane_of_F4(Ff):
    """The circle z1^2 + z2^2 = 25 in the plane (1, 0, 2, 1) + span(u1, u2)
    of F^4, through four of its points, each a joint with one hyperplane
    through it whose normal does not kill the circle's tangent there."""
    base, u1, u2 = (1, 0, 2, 1), (1, 1, 0, 0), (0, 1, 1, 2)
    conic = VarietySpec(kind="hypersurface", ambient=4, dim=1, degree=2, point=base,
                        directions=(u1, u2),
                        surface_poly=parse_poly("1 * x1^2 + 1 * x2^2 + -25", Ff, 2))
    normals = [(1, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 1)]
    points, hyperplanes = [], []
    for z1, z2 in ((3, 4), (4, 3), (0, 5), (5, 0)):
        p = tuple(Ff.of(b + z1 * a + z2 * c) for b, a, c in zip(base, u1, u2))
        T = [Ff.of(-z2 * a + z1 * c) for a, c in zip(u1, u2)]
        nu = next(nu for nu in normals if Ff.of(sum(x * t for x, t in zip(nu, T))))
        dirs = nullspace(Ff, [[Ff.of(x) for x in nu]])
        hyperplanes.append(VarietySpec(kind="flat", ambient=4, dim=3, degree=1, point=p,
                                       directions=tuple(map(tuple, dirs))))
        points.append(p)
    return detect_joints(Ff, [Family(k=1, m=1, members=[conic]),
                              Family(k=3, m=1, members=hyperplanes)], candidates=points)


@pytest.mark.parametrize("name", ["F3", "Fp", "Q"])
def test_conic_in_a_plane_of_F4_ledgers_match_the_ambient_row_oracle(name):
    # the conic's rows are read in its carrier plane, C(n + 2, 2) columns
    # instead of C(n + 4, 4); walking the same steps on ambient rows picks
    # the same gammas and gives the same totals, under two handicaps and
    # a cap of 1, and every row picked, times the restriction matrix, is
    # the ambient row up to a row scalar
    Ff = {"F3": FieldSpec("prime", 3), "Fp": F, "Q": FQ}[name]
    cfg, n, ref = conic_in_a_plane_of_F4(Ff), 3, (0, 0)
    ids = list(range(len(cfg.joints)))
    assert len(ids) == 4 and cfg.joints_on(ref) == ids
    rng = random.Random(name)
    handicaps = [Handicap.zero(ids), Handicap({j: rng.randint(-2, 2) for j in ids},
                                              rng.sample(ids, len(ids)))]
    R = restriction_matrix(cfg.member(ref), Ff, n)
    assert (len(R), len(R[0])) == (binom(n + 2, 2), binom(n + 4, 4))
    for h, cap in ((handicaps[0], None), (handicaps[1], None), (handicaps[1], 1)):
        led = build_ledger(cfg, ref, h, n, cap)
        oracle, rows = ambient_ledger(cfg, ref, h, n, cap)
        assert led.totals() == oracle.totals()
        assert [(st.joint, st.order, st.gammas) for st in led.steps] == [
            (st.joint, st.order, st.gammas) for st in oracle.steps]
        assert (led.rank, led.cap_hit) == (oracle.rank, oracle.cap_hit)
        assert led.rank == dim_regular_functions(cfg.member(ref), n, Ff) == 2 * n + 1
        for st in led.steps:
            C = cfg.charts[st.joint][ref]
            for gamma in st.gammas:
                row = restricted(Ff, C.expansion_memos[n][gamma], R)
                ratio = Ff.div(Ff.of(C.scale), Ff.of(C.row_scale))
                assert [Ff.mul(Ff.pow(ratio, st.order), c) for c in row] == [
                    Ff.of(c) for c in rows[st.joint, gamma]]


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
    assert dim_regular_functions(cfg.member((0, 0)), 2, F) == binom(4, 2) == 6
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
        target = dim_regular_functions(cfg.member((0, 0)), n, F)
        assert not led.cap_hit
        assert led.rank == target
        assert sum(led.totals().values()) == target
        assert all(v >= 0 for tbl in led.counts.values() for v in tbl.values())
        assert all(led.joint_total(p) <= target for p in led.counts)


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
    assert [(s.joint, s.order, len(s.gammas)) for s in a.steps] == [
        (s.joint, s.order, len(s.gammas)) for s in b.steps
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
        assert len(st.gammas) == drop


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
