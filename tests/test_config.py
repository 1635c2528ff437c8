"""Joint detection, configurations, generators."""

import itertools
import json
import random

import pytest

from jointslab.balance import balance
from jointslab.basis import Handicap, build_ledger
from jointslab.config import (
    Family,
    JointsConfiguration,
    connected_components,
    detect_joints,
    generate,
    grid_line_composite,
    is_joint,
)
from jointslab.errors import DimensionMismatch, FieldTooSmall
from jointslab.field import DEFAULT_PRIME, FieldSpec, binom
from jointslab.linalg import rank
from jointslab.poly import parse_poly
from jointslab.varieties import (
    VarietySpec,
    contains_point,
    dim_regular_functions,
    make_chart,
    tangent_space,
)

from curved import curved_plane_config, line, plane_curve
from oracles import detect_by_is_joint, joint_records, records_of_tuples

F = FieldSpec("prime", DEFAULT_PRIME)
FQ = FieldSpec("rational")


def coordinate_flat(d, axes, point=None):
    dirs = []
    for a in axes:
        e = [0] * d
        e[a] = 1
        dirs.append(tuple(e))
    return VarietySpec(
        kind="flat", ambient=d, dim=len(axes), degree=1,
        point=tuple(point) if point else (0,) * d, directions=tuple(dirs),
    )


# -- is_joint ---------------------------------------------------------------


def test_is_joint_coordinate_split():
    # three coordinate 2-flats splitting F^6: tangents span, joint
    flats = [coordinate_flat(6, (0, 1)), coordinate_flat(6, (2, 3)), coordinate_flat(6, (4, 5))]
    charts = [make_chart(V, (0,) * 6, FQ) for V in flats]
    assert is_joint((0,) * 6, charts)


def test_is_joint_degenerate_split():
    # overlap in the spanned directions: rank 5 < 6, not a joint
    flats = [coordinate_flat(6, (0, 1)), coordinate_flat(6, (1, 2)), coordinate_flat(6, (3, 4))]
    charts = [make_chart(V, (0,) * 6, FQ) for V in flats]
    assert not is_joint((0,) * 6, charts)


def test_is_joint_inside_hyperplane():
    # three 2-flats all inside the hyperplane x6 = 0 cannot form a joint
    flats = [coordinate_flat(6, (0, 1)), coordinate_flat(6, (2, 3)), coordinate_flat(6, (3, 4))]
    charts = [make_chart(V, (0,) * 6, FQ) for V in flats]
    assert not is_joint((0,) * 6, charts)


def test_is_joint_dimension_mismatch():
    flats = [coordinate_flat(6, (0, 1)), coordinate_flat(6, (2, 3))]
    charts = [make_chart(V, (0,) * 6, FQ) for V in flats]
    with pytest.raises(DimensionMismatch):
        is_joint((0,) * 6, charts)


# -- detect_joints ----------------------------------------------------------


def test_detect_coordinate_flats():
    cfg = generate("coordinate-flats", field=F, d=6, k=2)
    assert cfg.s == 3
    assert len(cfg.joints) == 1
    assert cfg.joints[0] == (0,) * 6
    assert cfg.M(0) == 1
    assert cfg.chosen[0] == ((0, 0), (0, 1), (0, 2))


def test_detect_requires_candidates_for_nonflat():
    E = parse_poly("1 * x1^2 + 1 * x2^2 + -1 * x2", FQ, 2)
    circle = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=2,
                         point=(0, 0), directions=((1, 0), (0, 1)), surface_poly=E)
    line = coordinate_flat(2, (1,))
    fam = Family(k=1, m=2, members=[circle, line])
    cfg = detect_joints(FQ, [fam], candidates=[(0, 0), (5, 5)])
    assert cfg.joints == [(0, 0)]
    assert cfg.chosen[0] == ((0, 0), (0, 1))


def test_detect_curved_joint_at_origin():
    cfg = curved_plane_config()
    # (1, 1) lies on the cusp alone; (0, 1) on the circle and x1 = 0
    assert cfg.joints == [(0, 0), (0, 1)]
    # at the origin only the pairs with the line x1 = 0 are transversal:
    # circle and x2 = 0 share a tangent, and the cusp is singular
    assert cfg.M(0) == 2
    # the qualifying pairs ((0, 0), (0, 2)) and ((0, 1), (0, 2))
    assert cfg.uses[0] == {(0, 0): 1, (0, 1): 1, (0, 2): 2}
    assert cfg.chosen[0] == ((0, 0), (0, 2))
    assert cfg.chosen[1] == ((0, 0), (0, 2))
    assert cfg.joints_on((0, 3)) == [0]


def test_singular_member_imposes_no_condition():
    # the cusp passes through joint 0 with no chart there: its ledger is
    # empty and not cap-hit, and the regular members' ledgers still span
    cfg = curved_plane_config()
    assert cfg.charts[0][0, 3] is None
    h = Handicap.zero(range(len(cfg.joints)))
    cusp = build_ledger(cfg, (0, 3), h, 2)
    assert (cusp.rank, cusp.steps, cusp.counts, cusp.cap_hit) == (0, [], {}, False)
    for ref in [(0, 0), (0, 1), (0, 2)]:
        led = build_ledger(cfg, ref, h, 2)
        assert led.rank == dim_regular_functions(cfg.member(ref), 2, FQ) and not led.cap_hit
    assert balance(cfg, 2).status == "balanced"


def random_flats_through(rng, F, d, k, count, points):
    """Flats through points of the pool, with 0/1 directions, so that
    dependent tangent tuples (and pruned prefixes) are common."""
    members = []
    while len(members) < count:
        dirs = [tuple(F.of(rng.randrange(2)) for _ in range(d)) for _ in range(k)]
        if rank(F, [list(u) for u in dirs]) < k:
            continue
        members.append(VarietySpec(kind="flat", ambient=d, dim=k, degree=1,
                                   point=rng.choice(points), directions=tuple(dirs)))
    return members


def assert_detection_matches_oracle(F, families, candidates):
    # joints, designated tuples, every count c_V and M(p), each read off
    # the oracle's tuple lists
    cfg = detect_joints(F, families, candidates=candidates)
    oracle = detect_by_is_joint(F, families, candidates)
    assert joint_records(cfg) == records_of_tuples(oracle)
    return cfg, oracle


FIELDS = {"F2": FieldSpec("prime", 2), "Fp": F, "Q": FQ}


@pytest.mark.parametrize("shape", ["one-family", "two-families"])
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_detection_matches_is_joint_on_every_tuple(field, shape):
    Ff = FIELDS[field]
    d = 4
    tried = rejected = 0
    multiple = False
    for seed in range(4):
        rng = random.Random(f"{field}:{shape}:{seed}")
        points = [tuple(Ff.of(rng.randrange(2)) for _ in range(d)) for _ in range(2)]
        if shape == "one-family":
            families = [Family(k=1, m=4, members=random_flats_through(rng, Ff, d, 1, 9, points))]
        else:
            families = [
                Family(k=1, m=2, members=random_flats_through(rng, Ff, d, 1, 5, points)),
                Family(k=2, m=1, members=random_flats_through(rng, Ff, d, 2, 4, points)),
            ]
        candidates = points + [tuple(Ff.of(rng.randrange(3)) for _ in range(d)) for _ in range(3)]
        cfg, oracle = assert_detection_matches_oracle(Ff, families, candidates)
        for _, q, n_tried in oracle:
            tried += n_tried
            rejected += n_tried - len(q)
        multiple = multiple or any(cfg.M(j) > 1 for j in range(len(cfg.joints)))
    # the walk met both outcomes, and joints of multiplicity above 1
    assert 0 < rejected < tried
    assert multiple


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_pairwise_independence_never_stands_in_for_the_full_test(field):
    # through p: A = p + span(e1, e2), B = p + span(e3, e4) and
    # C = p + span(e1 + e3, e5) are pairwise independent, yet all three
    # lie in the hyperplane x6 = p6, so (A, B, C) is no joint, while
    # (A, B, D), D = p + span(e5, e6), is; C and D share e5, so every
    # other triple has a dependent pair
    Ff = FIELDS[field]
    p = (1, 0, 1, 1, 0, 1)

    def flat(*dirs):
        rows = tuple(tuple(int(i in axes) for i in range(6)) for axes in dirs)
        return VarietySpec(kind="flat", ambient=6, dim=2, degree=1, point=p, directions=rows)

    A, B, C, D = flat({0}, {1}), flat({2}, {3}), flat({0, 2}, {4}), flat({4}, {5})
    tangents = {V: [list(u) for u in V.directions] for V in (A, B, C, D)}
    for U, V in itertools.combinations((A, B, C), 2):
        assert rank(Ff, tangents[U] + tangents[V]) == 4
    assert rank(Ff, tangents[A] + tangents[B] + tangents[C]) == 5
    cfg, _ = assert_detection_matches_oracle(Ff, [Family(k=2, m=3, members=[A, B, C, D])],
                                             [p, (0,) * 6])
    assert cfg.joints == [tuple(Ff.of(x) for x in p)]
    # the one qualifying tuple (A, B, D)
    assert (cfg.chosen, cfg.uses, cfg.M(0)) == (
        [((0, 0), (0, 1), (0, 3))], [{(0, 0): 1, (0, 1): 1, (0, 3): 1}], 1)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_the_two_point_rule_and_shared_flat_reducers_hold_for_flats_only(field):
    # P = (0, 0), Q = (-1, 0) and R = (-1, -1) lie on the circle
    # x1^2 + x2^2 + x1 + x2 = 0 (over F_2 a smooth conic with tangent
    # (1, 1) everywhere).  The line L = PQ, its duplicate L2 and the line
    # M = QR each meet it in two candidates, transversally, so the circle
    # pairs with every line at both points.  L and L2 share P and Q and
    # are dependent; L and M meet at Q only.  The flat reducers of L and
    # M serve two candidates each, and at each one a pair extends them
    Ff = FIELDS[field]
    members = [line((0, 0), (1, 0)), plane_curve(Ff, "1 * x1^2 + 1 * x2^2 + 1 * x1 + 1 * x2", 2),
               line((-1, 0), (1, 0)), line((-1, 0), (0, 1))]
    cfg, _ = assert_detection_matches_oracle(Ff, [Family(k=1, m=2, members=members)],
                                             [(0, 0), (-1, 0), (-1, -1)])
    L, C, L2, M = ((0, i) for i in range(4))
    # the qualifying pairs [(L, C), (C, L2)] at P, [(L, C), (L, M),
    # (C, L2), (C, M), (L2, M)] at Q and [(C, M)] at R
    assert cfg.chosen == [(L, C), (L, C), (C, M)]
    assert cfg.uses == [{L: 1, C: 2, L2: 1}, {L: 2, C: 3, L2: 2, M: 3}, {C: 1, M: 1}]
    assert [cfg.M(j) for j in range(3)] == [2, 5, 1]


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_flat_directions_are_chart_tangent_rows(field):
    # a flat chart's tangent rows are its directions: its frame's basis puts them first
    Ff = FIELDS[field]
    rng = random.Random(field)
    for k in (1, 2, 3):
        points = [tuple(Ff.of(rng.randrange(1, 5)) for _ in range(4))]
        for V in random_flats_through(rng, Ff, 4, k, 5, points):
            C = make_chart(V, points[0], Ff)
            assert tangent_space(C) == [[Ff.of(x) for x in u] for u in V.directions]


def test_detection_matches_is_joint_on_curved_config():
    cfg = curved_plane_config()
    again, _ = assert_detection_matches_oracle(FQ, cfg.families, [(0, 0), (0, 1), (1, 1)])
    # the qualifying pairs [((0, 0), (0, 2)), ((0, 1), (0, 2))] at the
    # origin and [((0, 0), (0, 2))] at (0, 1)
    assert joint_records(again) == joint_records(cfg) == (
        [(0, 0), (0, 1)], [((0, 0), (0, 2)), ((0, 0), (0, 2))],
        [{(0, 0): 1, (0, 1): 1, (0, 2): 2}, {(0, 0): 1, (0, 2): 1}], [2, 1])


def test_detect_rejects_member_of_wrong_dimension():
    flats = [coordinate_flat(6, (0, 1)), coordinate_flat(6, (2, 3)), coordinate_flat(6, (4,))]
    with pytest.raises(DimensionMismatch):
        detect_joints(FQ, [Family(k=2, m=3, members=flats)], candidates=[(0,) * 6])


@pytest.mark.parametrize("m", [2, 4])
def test_detect_rejects_members_outside_F_d(m):
    # d = m lines in F^3: below the ambient (m = 2) two lines through the
    # origin would otherwise pass as a joint; above it (m = 4) no tuple could
    lines = [coordinate_flat(3, (a,)) for a in range(3)] + [
        VarietySpec(kind="flat", ambient=3, dim=1, degree=1,
                    point=(0, 0, 0), directions=((1, 1, 1),))
    ]
    with pytest.raises(DimensionMismatch):
        detect_joints(FQ, [Family(k=1, m=m, members=lines)], candidates=[(0, 0, 0)])


def test_multiplicity_brute_force():
    # M(p) counts qualifying tuples; cross-check by explicit enumeration
    cfg = generate("random-flats", field=F, seed=3, d=6, k=2, count=5)
    p = (0,) * 6
    assert p in cfg.joints
    i = cfg.joints.index(p)
    fam = cfg.families[0]
    expected = 0
    for picks in itertools.combinations(range(len(fam.members)), fam.m):
        rows = [u for mi in picks for u in fam.members[mi].directions]
        if rank(F, rows) == 6:
            expected += 1
    assert cfg.M(i) == expected
    assert expected >= 1


def test_generic_flats_through_origin_multiplicity():
    # 4 generic 2-flats through the origin in F^6: every triple spans,
    # M = C(4,3) = 4
    cfg = generate("random-flats", field=F, seed=1, d=6, k=2, count=4)
    assert cfg.joints == [(0,) * 6]
    assert cfg.M(0) == binom(4, 3)


def test_generic_hyperplanes_d3():
    cfg = generate("generic-hyperplanes", field=F, seed=0, d=3, h=5)
    # members: C(5,2) = 10 lines; joints: C(5,3) = 10 triple points
    assert len(cfg.families[0].members) == 10
    assert len(cfg.joints) == 10
    # each joint lies on exactly 3 of the lines
    for p in cfg.joints:
        on = sum(
            1 for V in cfg.families[0].members if contains_point(V, p, F) is not None
        )
        assert on == 3
    assert all(cfg.M(i) == 1 for i in range(10))


def test_generic_hyperplanes_d6():
    cfg = generate("generic-hyperplanes", field=F, seed=0, d=6, h=6)
    assert len(cfg.families[0].members) == binom(6, 4)  # 15 planes
    # with h = 6 hyperplanes there is a single 6-fold intersection point,
    # and every one of the C(6,4)-choose-3 spanning plane triples meets it
    assert len(cfg.joints) == 1
    assert cfg.M(0) == 15


def test_grid_and_line_generators():
    g = generate("grid", field=F, seed=0, t=3)
    assert len(g.joints) == 9
    assert g.s == 1
    assert all(g.M(i) == 1 for i in range(9))
    l = generate("line", field=F, seed=0, t=3)
    assert len(l.joints) == 9
    # collinearity of the line points
    (x0, y0), (x1, y1) = l.joints[0], l.joints[1]
    for (x, y) in l.joints[2:]:
        det = F.sub(
            F.mul(F.sub(x1, x0), F.sub(y, y0)),
            F.mul(F.sub(x, x0), F.sub(y1, y0)),
        )
        assert det == F.zero


def test_grid_line_composite_shape():
    cfg = grid_line_composite(F, 3, seed=4)
    assert len(cfg.joints) == 9 + 9
    grid = cfg.joints[:9]
    line = cfg.joints[9:]
    ys = {p[1] for p in line}
    assert len(ys) == 1
    assert ys.isdisjoint({p[1] for p in grid})


def test_field_too_small():
    small = FieldSpec("prime", 101)
    with pytest.raises(FieldTooSmall):
        generate("grid", field=small, t=3)
    with pytest.raises(FieldTooSmall):
        generate("generic-hyperplanes", field=small, h=5)


def test_generate_determinism():
    for kind, kw in (
        ("generic-hyperplanes", {"h": 5, "d": 3}),
        ("grid", {"t": 3}),
        ("line", {"t": 2}),
        ("random-flats", {"d": 6, "k": 2, "count": 4}),
    ):
        a = generate(kind, field=F, seed=7, **kw)
        b = generate(kind, field=F, seed=7, **kw)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )
        c = generate(kind, field=F, seed=8, **kw)
        assert json.dumps(a.to_json(), sort_keys=True) != json.dumps(
            c.to_json(), sort_keys=True
        )


def test_json_roundtrip_redetects():
    cfg = generate("generic-hyperplanes", field=F, seed=0, d=3, h=4)
    back = JointsConfiguration.from_json(json.loads(json.dumps(cfg.to_json())))
    assert back.joints == cfg.joints
    assert back.chosen == cfg.chosen
    assert [back.M(i) for i in range(len(back.joints))] == [
        cfg.M(i) for i in range(len(cfg.joints))
    ]


# -- connectivity -----------------------------------------------------------


def test_connected_components_split():
    # two coordinate-split triples at far-apart centers: two components
    d = 6
    flatsA = [coordinate_flat(d, (0, 1)), coordinate_flat(d, (2, 3)), coordinate_flat(d, (4, 5))]
    q = (100,) * d
    flatsB = [coordinate_flat(d, (0, 1), q), coordinate_flat(d, (2, 3), q),
              coordinate_flat(d, (4, 5), q)]
    fam = Family(k=2, m=3, members=flatsA + flatsB)
    cfg = detect_joints(FQ, [fam], candidates=[(0,) * d, q])
    assert len(cfg.joints) == 2
    comps = connected_components(cfg)
    assert len(comps) == 2
    assert [c.joints for c in comps] == [[(0,) * d], [tuple(map(FQ.of, q))]]


def test_connected_components_shared_member():
    # grid points all lie on the single plane member: one component
    cfg = generate("grid", field=F, seed=0, t=2)
    comps = connected_components(cfg)
    assert len(comps) == 1
    assert comps[0].joints == cfg.joints


def test_joints_on_geometric():
    d = 6
    q = (100,) * d
    split = [coordinate_flat(d, axes, c) for c in ((0,) * d, q)
             for axes in ((0, 1), (2, 3), (4, 5))]
    configs = [
        generate("generic-hyperplanes", field=F, seed=0, d=3, h=4),
        curved_plane_config(),
        detect_joints(FQ, [Family(k=2, m=3, members=split)], candidates=[(0,) * d, q]),
    ]
    assert len(connected_components(configs[-1])) == 2
    for whole in configs:
        for cfg in [whole] + connected_components(whole):
            for ref in cfg.all_members():
                V = cfg.member(ref)
                assert cfg.joints_on(ref) == [
                    i for i, p in enumerate(cfg.joints)
                    if contains_point(V, p, cfg.field) is not None
                ]
