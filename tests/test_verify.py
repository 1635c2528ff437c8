"""Rank/count checks, witnesses, multiplicity Schwartz-Zippel, bounds."""

import copy
import itertools
import random
from dataclasses import replace
from decimal import getcontext, localcontext
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointslab.balance import RootValue, build_all_ledgers
from jointslab.basis import Handicap
from jointslab.config import Family, detect_joints, generate
from jointslab.errors import (
    DimensionMismatch,
    MalformedInput,
    NotAJoint,
    SingularPoint,
    ZeroPolynomial,
)
from jointslab.field import DEFAULT_PRIME, FieldSpec, as_int, binom
from jointslab.linalg import IncrementalRowReducer, rank
from jointslab.poly import (
    AffineMap,
    Polynomial,
    expansion_row,
    monomials_upto,
    parse_poly,
    pullback,
    taylor_shift,
)
from jointslab.varieties import VarietySpec, ambient_equations, derivative_operator, make_chart
from jointslab.verify import (
    bound_report,
    decimal12,
    hasse_vanishing_witness,
    joint_coordinates,
    parameter_count_check,
    schwartz_zippel_mult,
    vanishing_rank_check,
)

from curved import circle_and_lines, line, parabola_and_circle
from oracles import inverse

F = FieldSpec("prime", DEFAULT_PRIME)
FQ = FieldSpec("rational")


def coordinate_flat(d, axes, point=None):
    dirs = []
    for a in axes:
        e = [0] * d
        e[a] = 1
        dirs.append(tuple(e))
    return VarietySpec(kind="flat", ambient=d, dim=len(axes), degree=1,
                       point=tuple(point) if point else (0,) * d,
                       directions=tuple(dirs))


def zero_handicap(cfg):
    return Handicap.zero(range(len(cfg.joints)))


# -- rank and parameter count ----------------------------------------------


def test_rank_coordinate_flats():
    cfg = generate("coordinate-flats", field=F, d=6, k=2)
    for n in (1, 2):
        L = build_all_ledgers(cfg, zero_handicap(cfg), n)
        got = vanishing_rank_check(cfg, L, n)
        assert got["pass"] and got["rank"] == got["expected"] == binom(n + 6, 6)
        cnt = parameter_count_check(cfg, L, n)
        assert cnt["pass"] and cnt["lhs"] == binom(n + 2, 2) ** 3


def test_rank_matches_taylor_oracle_on_plane():
    # s = 1: the product functionals are the plane's own Hasse rows, so
    # the rank matrix can be recomputed from Taylor coefficients alone
    cfg = generate("grid", field=F, seed=1, t=2)
    n = 2
    L = build_all_ledgers(cfg, zero_handicap(cfg), n)
    got = vanishing_rank_check(cfg, L, n)
    monos = monomials_upto(2, n)
    red = IncrementalRowReducer(F)
    for j, p in enumerate(cfg.joints):
        led = L[(0, 0)]
        for gamma in led.selected_gammas(j):
            shifts = [taylor_shift(Polynomial.monomial(F, 2, e), list(p))
                      for e in monos]
            red.insert([s.coefficient(gamma) for s in shifts])
    assert got["pass"] == (red.rank == binom(n + 2, 2))
    assert got["rank"] == red.rank


def composed_operator_rows(cfg, ledgers, n):
    """The product rows by the operator path: per joint, compose one
    derivative operator per designated member over the product of the
    rows its ledger selected there (by order, then row order), and
    evaluate the product on each monomial, times the row scalar
    prod_i lambda_i^|gamma_i| of the charts' scales."""
    F = cfg.field
    monos = monomials_upto(cfg.ambient, n)
    rows = []
    for j, p in enumerate(cfg.joints):
        per_member = []
        for ref in cfg.chosen[j]:
            C = make_chart(cfg.member(ref), p, F)
            steps = sorted((st for st in ledgers[ref].steps if st.joint == j),
                           key=lambda st: st.order)
            per_member.append([(derivative_operator(C, gamma), C.scale ** st.order)
                               for st in steps for gamma in st.gammas])
        for pick in itertools.product(*per_member):
            op, scalar = pick[0]
            for other, s in pick[1:]:
                op, scalar = op.compose(other), scalar * s
            rows.append([F.mul(F.of(scalar), op.monomial_functional(delta, p)) for delta in monos])
    return rows


def lines_off_origin(Ff=F):
    members = [line((2, 0), (0, 1)), line((0, 3), (1, 0)), line((5, 0), (-1, 1)),
               line((0, 0), (1, 0))]
    return detect_joints(Ff, [Family(1, 2, members)], candidates=[(2, 3), (2, 0), (5, 0)])


def visited_picks(cfg, ledgers, n):
    """(row, built) for every pick, in the rank check's order: the pick's
    expansion row along the joint coordinates the check reads, and
    whether |gamma| <= n*D, D the highest t-degree of any of their terms."""
    for j, p in enumerate(cfg.joints):
        gammas = [ledgers[ref].selected_gammas(j) for ref in cfg.chosen[j]]
        coords = joint_coordinates([as_int(x) for x in p], [
            (C.owner.dim, C.scaled_coordinates(max((sum(g) for g in gs), default=0)))
            for C, gs in zip(cfg.designated_charts(j), gammas)
        ])
        D = max(sum(beta) for ci in coords for beta in ci)
        memo = {}
        for pick in itertools.product(*gammas):
            gamma = sum(pick, ())
            yield expansion_row(cfg.field, coords, n, gamma, memo), sum(gamma) <= n * D


def check_inserting_every_row(cfg, n, rows):
    """The rank check's result when each of ``rows`` is inserted, in order,
    until the rank reaches C(n+d, d)."""
    expected = binom(n + cfg.ambient, cfg.ambient)
    red = IncrementalRowReducer(cfg.field)
    seen = 0
    for row in rows:
        seen += 1
        red.insert(row)
        if red.rank >= expected:
            break
    return {"rank": red.rank, "expected": expected, "rows": seen, "pass": red.rank == expected}


@pytest.mark.parametrize("make", [lines_off_origin, circle_and_lines])
def test_rank_rows_match_composed_operators(recorded_inserts, make):
    cfg = make()
    assert all(any(p) for p in cfg.joints)
    # the circle's rows are read at a scale above 1, the lines' at 1
    scales = {C.scale for on in cfg.charts for C in on.values()}
    assert (max(scales) > 1) == (make is circle_and_lines)
    with recorded_inserts() as inserted:
        for n in (1, 2, 3):
            L = build_all_ledgers(cfg, zero_handicap(cfg), n)
            assert any((0,) in L[ref].selected_gammas(j)
                       for j in range(len(cfg.joints)) for ref in cfg.chosen[j])
            inserted.clear()
            got = vanishing_rank_check(cfg, L, n)
            oracle = composed_operator_rows(cfg, L, n)
            assert got["pass"] and got == check_inserting_every_row(cfg, n, oracle)
            # the reducer receives the oracle rows of the picks built, in
            # order; every pick skipped has a zero oracle row
            built = [b for _, b in visited_picks(cfg, L, n)]
            assert inserted == [r for r, b in zip(oracle[: got["rows"]], built) if b]
            assert not any(any(r) for r, b in zip(oracle, built) if not b)
            # no ledger walked a fresh detection's charts: the check itself
            # reads each through the highest order its ledger selected
            rows = list(inserted)
            inserted.clear()
            assert vanishing_rank_check(make(), L, n) == got and inserted == rows


def generic_hyperplanes(Ff):
    return generate("generic-hyperplanes", field=Ff, d=6, h=6)


@pytest.mark.parametrize("make, Ff, degrees", [
    (lines_off_origin, F, (2, 3, 4)),
    (lines_off_origin, FQ, (2, 3, 4)),
    (generic_hyperplanes, F, (2, 3, 4)),
    # over Q, building every pick's row at n = 4 takes about 12 s (2-core VM)
    (generic_hyperplanes, FQ, (2, 3)),
    (circle_and_lines, F, (2, 3, 4)),
    (circle_and_lines, FQ, (2, 3, 4)),
    (parabola_and_circle, F, (2, 3, 4)),
    (parabola_and_circle, FQ, (2, 3, 4)),
], ids=["lines-Fp", "lines-Q", "hyperplanes-Fp", "hyperplanes-Q", "circle-Fp", "circle-Q",
        "parabola-circle-Fp", "parabola-circle-Q"])
def test_rank_check_builds_only_picks_within_the_degree_bound(recorded_inserts, make, Ff,
                                                              degrees):
    # a pick with |gamma| > n*D is counted but not built: rank, rows and
    # pass are those of the check that inserts every pick, the reducer
    # receives the rows of the other picks visited, in order, and every
    # skipped pick's row is zero
    cfg = make(Ff)
    curved = any(V.kind != "flat" for fam in cfg.families for V in fam.members)
    skipped = 0
    for n in degrees:
        L = build_all_ledgers(cfg, zero_handicap(cfg), n)
        with recorded_inserts() as inserted:
            got = vanishing_rank_check(cfg, L, n)
        picks = list(visited_picks(cfg, L, n))
        assert got == check_inserting_every_row(cfg, n, (r for r, _ in picks))
        assert inserted == [r for r, b in picks[: got["rows"]] if b]
        assert not any(any(r) for r, b in picks if not b)
        skipped += got["rows"] - len(inserted)
    # flat charts have D = 1, so |gamma| > n is skipped there
    assert skipped > 0 or curved


def test_rank_drops_when_a_joint_is_silenced():
    cfg = generate("grid", field=F, seed=1, t=2)
    n = 2
    L = build_all_ledgers(cfg, zero_handicap(cfg), n)
    assert vanishing_rank_check(cfg, L, n)["pass"]
    broken = copy.deepcopy(L)
    led = broken[(0, 0)]
    victim = max(led.counts, key=led.joint_total)
    led.steps = [s for s in led.steps if s.joint != victim]
    led.counts[victim] = {}
    got = vanishing_rank_check(cfg, broken, n)
    assert not got["pass"]
    assert got["rank"] < got["expected"]


@given(seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_rank_pass_implies_count_pass(seed):
    rng = random.Random(seed)
    cfg = generate("grid", field=F, seed=rng.randint(0, 99), t=2)
    n = rng.choice([1, 2])
    L = build_all_ledgers(cfg, zero_handicap(cfg), n)
    if vanishing_rank_check(cfg, L, n)["pass"]:
        assert parameter_count_check(cfg, L, n)["pass"]


# -- witnesses --------------------------------------------------------------


def coordinate_split_charts(Ff):
    flats = [coordinate_flat(6, (0, 1)), coordinate_flat(6, (2, 3)),
             coordinate_flat(6, (4, 5))]
    return [make_chart(V, (0,) * 6, Ff) for V in flats]


def test_witness_monomial_across_blocks():
    charts = coordinate_split_charts(FQ)
    g = parse_poly("1 * x1 x3 x5", FQ, 6)
    got = hasse_vanishing_witness((0,) * 6, charts, g)
    assert got["pass"]
    assert got["orders"] == [1, 1, 1]
    assert got["total_order"] == 3
    assert got["value"] == got["coefficient"] == FQ.one


def test_witness_nonvanishing_polynomial():
    charts = coordinate_split_charts(FQ)
    g = parse_poly("7 + 1 * x2^2", FQ, 6)
    got = hasse_vanishing_witness((0,) * 6, charts, g)
    assert got["pass"]
    assert got["orders"] == [0, 0, 0]
    assert got["value"] == FQ.of(7)


def test_witness_circle_and_transversal():
    E = parse_poly("1 * x1^2 + 1 * x2^2 + -1 * x2", FQ, 2)
    circle = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=2,
                         point=(0, 0), directions=((1, 0), (0, 1)),
                         surface_poly=E)
    line = VarietySpec(kind="flat", ambient=2, dim=1, degree=1,
                       point=(0, 0), directions=((0, 1),))
    charts = [make_chart(circle, (0, 0)), make_chart(line, (0, 0), FQ)]
    # g vanishes identically on the circle but is transverse to the line
    g = parse_poly("1 * x2 + -1 * x1^2 + -1 * x2^2", FQ, 2)
    got = hasse_vanishing_witness((0, 0), charts, g)
    assert got["pass"]
    assert got["total_order"] == 1
    assert sum(got["orders"]) == 1
    assert got["value"] == got["coefficient"]


def test_witness_reads_charts_through_degree_one():
    # a fresh hypersurface chart is solved through degree 1; an order-2
    # block on the circle must not grow its series
    E = parse_poly("1 * x1^2 + 1 * x2^2 + -1 * x2", FQ, 2)
    circle = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=2,
                         point=(0, 0), directions=((1, 0), (0, 1)),
                         surface_poly=E)
    line = VarietySpec(kind="flat", ambient=2, dim=1, degree=1,
                       point=(0, 0), directions=((0, 1),))
    charts = [make_chart(circle, (0, 0)), make_chart(line, (0, 0), FQ)]
    solved = charts[0]._solved
    got = hasse_vanishing_witness((0, 0), charts, parse_poly("1 * x1^2 x2 + 3 * x1^3", FQ, 2))
    assert got["pass"] and got["orders"] == [3, 0]
    assert charts[0]._solved == solved == 1


def test_witness_random_polynomials():
    rng = random.Random(0)
    charts = coordinate_split_charts(F)
    monos = monomials_upto(6, 3)
    for _ in range(10):
        terms = {}
        for e in monos:
            if rng.random() < 0.15:
                terms[e] = F.of(rng.randrange(1, F.p))
        if not terms:
            continue
        g = Polynomial(F, 6, terms)
        got = hasse_vanishing_witness((0,) * 6, charts, g)
        assert got["pass"]
        assert sum(got["orders"]) == got["total_order"]


def test_witness_guards():
    charts = coordinate_split_charts(FQ)
    with pytest.raises(ZeroPolynomial):
        hasse_vanishing_witness((0,) * 6, charts, Polynomial.zero(FQ, 6))
    bad = [make_chart(coordinate_flat(6, (0, 1)), (0,) * 6, FQ),
           make_chart(coordinate_flat(6, (1, 2)), (0,) * 6, FQ),
           make_chart(coordinate_flat(6, (3, 4)), (0,) * 6, FQ)]
    with pytest.raises(NotAJoint):
        hasse_vanishing_witness((0,) * 6, bad, parse_poly("1 * x1", FQ, 6))


def test_witness_rejects_charts_that_are_not_a_joint_tuple():
    charts = coordinate_split_charts(FQ)
    g = parse_poly("1 * x1", FQ, 6)
    elsewhere = (1, 0, 0, 0, 0, 0)
    off_point = charts[:2] + [make_chart(coordinate_flat(6, (4, 5), elsewhere), elsewhere, FQ)]
    cases = [(off_point, NotAJoint), (charts[:2], DimensionMismatch),
             (charts + charts[:1], DimensionMismatch), ([], NotAJoint)]
    for charts_, error in cases:
        with pytest.raises(error):
            hasse_vanishing_witness((0,) * 6, charts_, g)


def skew_flats_at_a_point(rng):
    """Three random 2-flats of F_p^6 through a random point, spanning
    there, and the map from their stacked directions' coordinates to x."""
    p = tuple(rng.randrange(F.p) for _ in range(6))
    while True:
        dirs = [tuple(rng.randrange(F.p) for _ in range(6)) for _ in range(6)]
        if rank(F, dirs) == 6:
            break
    flats = [VarietySpec(kind="flat", ambient=6, dim=2, degree=1, point=p,
                         directions=tuple(dirs[2 * i : 2 * i + 2])) for i in range(3)]
    return p, flats, AffineMap(F, [list(col) for col in zip(*dirs)], p)


def vanishing_at(rng, Ff, p, lo, hi, density):
    """g(x) = G(x - p) for a random G with terms of degree lo..hi."""
    terms = {}
    for e in monomials_upto(len(p), hi):
        if sum(e) >= lo and rng.random() < density:
            terms[e] = Ff.of(rng.randrange(1, Ff.p) if Ff.kind == "prime" else rng.randint(1, 9))
    return taylor_shift(Polynomial(Ff, len(p), terms), [Ff.neg(Ff.of(x)) for x in p])


def composed_witness_value(p, charts, gammas, g):
    """D_1 ... D_s g(p) by the operator path: the charts' derivative
    operators of the witness's orders, composed and evaluated."""
    op = derivative_operator(charts[0], gammas[0])
    for C, gamma in zip(charts[1:], gammas[1:]):
        op = op.compose(derivative_operator(C, gamma))
    return op.evaluate(g, p)


def test_witness_matches_composed_operators_off_origin():
    rng = random.Random(3)
    cases = []
    for _ in range(3):
        p, flats, unframe = skew_flats_at_a_point(rng)
        charts = [make_chart(V, p, F) for V in flats]
        cases += [(p, charts, vanishing_at(rng, F, p, lo, 4, 0.04)) for lo in (0, 1, 2, 3, 3)]
        # framed, y1 y3 y5^2 + y2^4: orders (1, 1, 2)
        framed = parse_poly("1 * x1 x3 x5^2 + 1 * x2^4", F, 6)
        cases.append((p, charts, pullback(framed, inverse(unframe))))
    cfg = circle_and_lines()
    j = cfg.joints.index((3, 4))
    charts = cfg.designated_charts(j)
    circle_eq = ambient_equations(cfg.member(cfg.chosen[j][0]))[0]
    cases.append(((3, 4), charts, circle_eq))
    for lo in (0, 1, 2, 2, 3, 4):
        cases.append(((3, 4), charts, vanishing_at(rng, FQ, (3, 4), lo, 4, 0.4)))
        cases.append(((3, 4), charts, circle_eq * vanishing_at(rng, FQ, (3, 4), lo, 2, 0.5)))
    orders = set()
    for p, charts_, g in cases:
        if g.is_zero():
            continue
        got = hasse_vanishing_witness(p, charts_, g)
        assert got["pass"]
        assert got["value"] == got["coefficient"] != 0
        assert [sum(b) for b in got["gammas"]] == got["orders"]
        assert sum(got["orders"]) == got["total_order"]
        assert got["value"] == composed_witness_value(p, charts_, got["gammas"], g)
        orders.add(tuple(got["orders"]))
    # the cases reach positive orders on every chart, flats and circle alike
    assert {(0, 1), (1, 0), (1, 1)} <= orders
    assert (1, 1, 2) in orders


# -- Schwartz-Zippel with multiplicities ------------------------------------


def test_sz_tight_product_of_axes():
    g = parse_poly("1 * x1 x2", FQ, 2)
    got = schwartz_zippel_mult(g, [0, 1, 2])
    assert got["pass"] and got["lhs"] == got["rhs"] == 6


def test_sz_product_of_grid_lines_tight():
    # prod (x1 - a) over a in A vanishes to total order |A|^(n-1)*|A|
    A = [0, 1, 2]
    g = Polynomial.constant(FQ, 2, 1)
    x = Polynomial.variable(FQ, 2, 0)
    for a in A:
        g = g * (x - Polynomial.constant(FQ, 2, a))
    got = schwartz_zippel_mult(g, A)
    assert got["pass"] and got["lhs"] == got["rhs"] == 9


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_sz_bound_holds(seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 2)
    monos = monomials_upto(nvars, 4)
    terms = {}
    for e in monos:
        c = rng.randint(-3, 3)
        if c:
            terms[e] = FQ.of(c)
    if not terms:
        return
    g = Polynomial(FQ, nvars, terms)
    got = schwartz_zippel_mult(g, [-1, 0, 1, 2])
    assert got["pass"]


def test_sz_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        schwartz_zippel_mult(Polynomial.zero(FQ, 2), [0, 1])


def test_sz_rejects_values_that_coincide_in_the_field():
    # A is a set: 0, 0 and 0, 101 over F_101 would count the grid points
    # of a repeated value twice (lhs 4 against rhs 2 for x1)
    with pytest.raises(MalformedInput):
        schwartz_zippel_mult(parse_poly("1 * x1", FQ, 2), [0, 0])
    F101 = FieldSpec("prime", 101)
    with pytest.raises(MalformedInput):
        schwartz_zippel_mult(parse_poly("1 * x1", F101, 2), [0, 101])
    assert schwartz_zippel_mult(parse_poly("1 * x1", F101, 2), [0, 100])["pass"]


# -- bound reports ----------------------------------------------------------


def test_bound_lines_in_space():
    # C(6,2) = 15 lines, C(6,3) = 20 triple points in ambient 3
    cfg = generate("generic-hyperplanes", field=F, seed=0, d=3, h=6)
    rep = bound_report(cfg)
    assert rep.applicable and rep.pass_a and rep.pass_b
    assert rep.joint_count == 20 and rep.s == 3
    assert rep.degree_product == 15**3
    # constant (1!^3 * 3^3 / 3!)^(-1/2) = sqrt(2)/3
    assert rep.constant_a == RootValue(Fraction(2, 9), 2)
    assert rep.constant_b == RootValue(Fraction(1))
    # 20^2 = 400 <= 2 * 15^3 / 9 = 750, with slack
    assert Fraction(400) <= rep.rhs_a.Q


def test_bound_planes_constant():
    cfg = generate("generic-hyperplanes", field=F, seed=0, d=6, h=6)
    rep = bound_report(cfg)
    # 6! / (2!^3 * 3^3) = 10/3 under the square root
    assert rep.constant_a == RootValue(Fraction(10, 3), 2)
    # part b constant: 6! / (2!^3 * 3!) = 15 under the square root
    assert rep.constant_b == RootValue(Fraction(15), 2)
    assert rep.applicable and rep.pass_a and rep.pass_b


def test_bound_reads_the_declared_degree_of_a_repeated_factor():
    # a known limit: (x1 - x2^2)^2 in the plane must be declared at degree
    # 4, its polynomial's degree, though its curve has degree 2; every
    # point of it is singular, so it is a member at no joint, yet the
    # bound reads 4 + 1 + 1 for the family, not 2 + 1 + 1
    square = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=4,
                         point=(0, 0), directions=((1, 0), (0, 1)),
                         surface_poly=parse_poly("1 * x1^2 + -2 * x1 x2^2 + 1 * x2^4", FQ, 2))
    with pytest.raises(ValueError, match="declared degree"):
        replace(square, degree=2)
    members = [square, line((1, 0), (0, 1)), line((0, 1), (1, 0))]
    cfg = detect_joints(FQ, [Family(1, 2, members)], candidates=[(1, 1)])
    assert cfg.joints == [(1, 1)] and cfg.chosen[0] == ((0, 1), (0, 2)) and cfg.M(0) == 1
    with pytest.raises(SingularPoint):
        make_chart(square, (1, 1), FQ)
    assert bound_report(cfg).degree_product == (4 + 1 + 1) ** 2


def test_bound_empty_configuration():
    fam = Family(k=2, m=3, members=[
        coordinate_flat(6, (0, 1)), coordinate_flat(6, (2, 3)),
        coordinate_flat(6, (4, 5))])
    cfg = detect_joints(FQ, [fam], candidates=[(1, 0, 0, 0, 0, 0)])
    assert cfg.joints == []
    rep = bound_report(cfg)
    assert rep.applicable and rep.pass_a and rep.pass_b
    assert rep.joint_count == 0


def test_bound_single_family_not_applicable():
    cfg = generate("grid", field=F, seed=0, t=2)
    rep = bound_report(cfg)
    assert not rep.applicable
    assert rep.to_json()["applicable"] is False


def test_decimal12():
    assert decimal12(Fraction(1, 3)).startswith("0.333333333333")
    assert decimal12(RootValue(Fraction(2), 2)).startswith("1.41421356237")


def test_bound_report_leaves_decimal_context():
    cfg = generate("generic-hyperplanes", field=F, seed=0, d=3, h=4)
    with localcontext() as ctx:
        ctx.prec = 28
        bound_report(cfg).to_json()
        assert getcontext().prec == 28


def _duck_cfg(degrees, multiplicities):
    """s = 3 lines in F^3 with the given degrees and M(p) values: m = 2 and
    rhs_b = (sum of degrees)^3, read as a square root."""
    family = SimpleNamespace(k=1, m=3, members=[SimpleNamespace(degree=g) for g in degrees])
    return SimpleNamespace(s=3, ambient=3, families=[family], joints=[None] * len(multiplicities),
                           M=lambda j: multiplicities[j])


def test_bound_part_b_equal_sides_pass():
    # 3 sqrt(3) = sqrt(27): the brackets never part, equality is decided exactly
    rep = bound_report(_duck_cfg((1, 1, 1), (3, 3, 3)))
    assert rep.rhs_b == RootValue(Fraction(27), 2)
    assert rep.pass_b
    # sqrt(12) + sqrt(3) = sqrt(27), and rationals: 4 + 4 = sqrt(4^3)
    assert bound_report(_duck_cfg((1, 1, 1), (12, 3))).pass_b
    assert bound_report(_duck_cfg((1, 1, 2), (16, 16))).pass_b
    assert not bound_report(_duck_cfg((1, 1, 1), (3, 3, 4))).pass_b


def test_bound_part_b_near_miss():
    # sqrt(S^3 + 1) against sqrt(S^3) with S = 2^512: the sides differ by
    # about 2^-769, so the 768-bit brackets do not part and the radicands
    # differ; refining on shows the sum above the bound
    S = 2**512
    over = bound_report(_duck_cfg((S - 2, 1, 1), (S**3 + 1,)))
    assert over.rhs_b == RootValue(Fraction(S**3), 2)
    assert not over.pass_b
    lo, hi = over.mult_sum_brackets
    assert hi - lo < Fraction(1, 2**768)
    assert bound_report(_duck_cfg((S - 2, 1, 1), (S**3 - 1,))).pass_b
