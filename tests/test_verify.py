"""Rank/count checks, witnesses, multiplicity Schwartz-Zippel, bounds."""

import copy
import itertools
import random
from decimal import getcontext, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointslab.balance import RootValue, build_all_ledgers
from jointslab.basis import Handicap
from jointslab.config import Family, detect_joints, generate
from jointslab.errors import NotAJoint, ZeroPolynomial
from jointslab.field import DEFAULT_PRIME, FieldSpec, binom
from jointslab.linalg import IncrementalRowReducer
from jointslab.poly import (
    Polynomial,
    monomials_upto,
    parse_poly,
    taylor_shift,
)
from jointslab.varieties import VarietySpec, derivative_operator, make_chart
from jointslab.verify import (
    bound_report,
    decimal12,
    hasse_vanishing_witness,
    parameter_count_check,
    schwartz_zippel_mult,
    vanishing_rank_check,
)

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
    evaluate the product on each monomial."""
    monos = monomials_upto(cfg.ambient, n)
    rows = []
    for j, p in enumerate(cfg.joints):
        per_member = []
        for ref in cfg.chosen[j]:
            C = make_chart(cfg.member(ref), p, ledgers[ref].cap, cfg.field)
            steps = sorted((st for st in ledgers[ref].steps if st.joint == j),
                           key=lambda st: st.order)
            per_member.append([derivative_operator(C, row.gamma)
                               for st in steps for row in st.rows])
        for pick in itertools.product(*per_member):
            op = pick[0]
            for other in pick[1:]:
                op = op.compose(other)
            rows.append([op.monomial_functional(delta, p) for delta in monos])
    return rows


def line(point, direction):
    return VarietySpec(kind="flat", ambient=2, dim=1, degree=1, point=point,
                       directions=(direction,))


def circle_and_lines():
    circle = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=2,
                         point=(0, 0), directions=((1, 0), (0, 1)),
                         surface_poly=parse_poly("1 * x1^2 + 1 * x2^2 + -25", FQ, 2))
    members = [circle, line((3, 0), (0, 1)), line((0, 4), (1, 0))]
    return detect_joints(FQ, [Family(1, 2, members)], candidates=[(3, 4), (3, -4), (-3, 4)])


def lines_off_origin():
    members = [line((2, 0), (0, 1)), line((0, 3), (1, 0)), line((5, 0), (-1, 1)),
               line((0, 0), (1, 0))]
    return detect_joints(F, [Family(1, 2, members)])


@pytest.mark.parametrize("make", [lines_off_origin, circle_and_lines])
def test_rank_rows_match_composed_operators(monkeypatch, make):
    import jointslab.verify as verify_module

    cfg = make()
    assert all(any(p) for p in cfg.joints)
    inserted = []

    class Recording(IncrementalRowReducer):
        def insert(self, row):
            inserted.append(list(row))
            return super().insert(row)

    monkeypatch.setattr(verify_module, "IncrementalRowReducer", Recording)
    for n in (1, 2, 3):
        L = build_all_ledgers(cfg, zero_handicap(cfg), n)
        assert any((0,) in L[ref].selected_gammas(j)
                   for j in range(len(cfg.joints)) for ref in cfg.chosen[j])
        inserted.clear()
        got = vanishing_rank_check(cfg, L, n)
        assert got["pass"] and got["rows"] == len(inserted)
        assert inserted == composed_operator_rows(cfg, L, n)[: len(inserted)]


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


def coordinate_split_charts(Ff, trunc=3):
    flats = [coordinate_flat(6, (0, 1)), coordinate_flat(6, (2, 3)),
             coordinate_flat(6, (4, 5))]
    return [make_chart(V, (0,) * 6, trunc, Ff) for V in flats]


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
    charts = [make_chart(circle, (0, 0), 5), make_chart(line, (0, 0), 5, FQ)]
    # g vanishes identically on the circle but is transverse to the line
    g = parse_poly("1 * x2 + -1 * x1^2 + -1 * x2^2", FQ, 2)
    got = hasse_vanishing_witness((0, 0), charts, g)
    assert got["pass"]
    assert got["total_order"] == 1
    assert sum(got["orders"]) == 1
    assert got["value"] == got["coefficient"]


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
    bad = [make_chart(coordinate_flat(6, (0, 1)), (0,) * 6, 3, FQ),
           make_chart(coordinate_flat(6, (1, 2)), (0,) * 6, 3, FQ),
           make_chart(coordinate_flat(6, (3, 4)), (0,) * 6, 3, FQ)]
    with pytest.raises(NotAJoint):
        hasse_vanishing_witness((0,) * 6, bad, parse_poly("1 * x1", FQ, 6))


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
