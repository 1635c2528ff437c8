"""Acceptance gate: one test per headline criterion, with runtime budgets.

Each test asserts its mathematical content exactly (no floating point in
any verdict) and then asserts that it ran inside its time budget.  A
summary line per criterion is printed by the conftest hook.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from jointslab.balance import RootValue, balance, build_all_ledgers
from jointslab.basis import Handicap, T_dimension, build_ledger
from jointslab.config import generate, grid_line_composite
from jointslab.field import DEFAULT_PRIME, FieldSpec, binom
from jointslab.linalg import IncrementalRowReducer
from jointslab.poly import (
    Polynomial,
    format_poly,
    hasse_apply,
    monomials_upto,
    parse_poly,
    taylor_shift,
    vanishing_order,
)
from jointslab.varieties import (
    VarietySpec,
    derivative_operator,
    make_chart,
    well_defined_check,
)
from jointslab.verify import (
    bound_report,
    hasse_vanishing_witness,
    schwartz_zippel_mult,
    vanishing_rank_check,
)

F = FieldSpec("prime", DEFAULT_PRIME)
FQ = FieldSpec("rational")


@contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    assert time.monotonic() - t0 < seconds


def circle():
    E = parse_poly("1 * x1^2 + 1 * x2^2 + -1 * x2", FQ, 2)
    return VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=2,
                       point=(0, 0), directions=((1, 0), (0, 1)),
                       surface_poly=E)


def random_poly(rng, Ff, nvars, deg, density=0.3):
    terms = {}
    for e in monomials_upto(nvars, deg):
        if rng.random() < density:
            c = rng.randrange(Ff.p) if Ff.kind == "prime" else rng.randint(-9, 9)
            if c:
                terms[e] = Ff.of(c)
    return Polynomial(Ff, nvars, terms)


def test_acceptance_01_circle_chart():
    # the circle through the origin is locally the graph of
    # h(x) = x^2 + x^4 + 2x^6 up to degree 6
    with budget(1):
        C = make_chart(circle(), (0, 0))
        assert format_poly(C.series(6)[0]) == "1 * x1^2 + 1 * x1^4 + 2 * x1^6"


def test_acceptance_02_circle_operators():
    with budget(1):
        C = make_chart(circle(), (0, 0))
        one = FQ.one
        D = [derivative_operator(C, (r,), ambient=False) for r in range(5)]
        assert D[0].combo == {(0, 0): one}
        assert D[1].combo == {(1, 0): one}
        assert D[2].combo == {(2, 0): one, (0, 1): one}
        assert D[3].combo == {(3, 0): one, (1, 1): one}
        # known difference: the closed-form coefficient rule adds an
        # order-1 term to the familiar display of the fourth operator
        displayed = {(4, 0): one, (2, 1): one, (0, 2): one}
        assert D[4].combo == {**displayed, (0, 1): one}
        for op in D:
            assert well_defined_check(C, op, trials=10, seed=1)["pass"]


def test_acceptance_03_taylor_identity():
    # g(a + b) = sum_w Hasse^w g(a) * b^w, 500 random cases
    with budget(10):
        rng = random.Random(42)
        for _ in range(500):
            d = rng.randint(1, 4)
            deg = rng.randint(0, 8)
            g = random_poly(rng, F, d, deg, density=0.2)
            a = [F.of(rng.randrange(F.p)) for _ in range(d)]
            b = [F.of(rng.randrange(F.p)) for _ in range(d)]
            lhs = g.evaluate([F.add(x, y) for x, y in zip(a, b)])
            rhs = F.zero
            top = int(g.degree) if not g.is_zero() else 0
            for w in monomials_upto(d, top):
                term = hasse_apply(w, g).evaluate(a)
                for y, k in zip(b, w):
                    term = F.mul(term, F.pow(y, k))
                rhs = F.add(rhs, term)
            assert lhs == rhs


def test_acceptance_04_ledger_totals_partition():
    # per plane, the selected row counts over its joints always sum to
    # dim R_{plane, <= n} = C(n+2,2), for any handicap
    with budget(60):
        rng = random.Random(7)
        cases = []
        for seed in range(30):
            cases.append((generate("random-flats", field=F, seed=seed, d=6,
                                   k=2, count=4, through_origin=True),
                          rng.randint(1, 3)))
        for seed in range(19):
            cases.append((generate("generic-hyperplanes", field=F, seed=seed,
                                   d=6, h=6), rng.randint(1, 3)))
        cases.append((generate("generic-hyperplanes", field=F, seed=0, d=6,
                               h=7), 2))
        assert len(cases) == 50
        for cfg, n in cases:
            ids = list(range(len(cfg.joints)))
            h = Handicap({j: rng.randint(-2, 2) for j in ids}, ids)
            for ref in cfg.all_members():
                led = build_ledger(cfg, ref, h, n)
                assert not led.cap_hit
                assert sum(led.totals().values()) == binom(n + 2, 2)


def test_acceptance_05_ledger_lemmas():
    # three ledger lemmas on randomized planar instances
    with budget(120):
        rng = random.Random(11)

        def instance():
            npts = rng.randint(2, 4)
            pts = set()
            while len(pts) < npts:
                pts.add((rng.randrange(F.p), rng.randrange(F.p)))
            cfg = generate("grid", field=F, seed=0, t=1)  # template plane
            from jointslab.config import detect_joints
            cfg = detect_joints(F, cfg.families, candidates=sorted(pts))
            n = rng.randint(1, 3)
            return cfg, n

        # uniform boundedness: a joint lagging more than n behind another
        # joint on the same flat receives no rows at all
        for _ in range(100):
            cfg, n = instance()
            ids = list(range(len(cfg.joints)))
            p, q = rng.sample(ids, 2)
            alpha = {j: rng.randint(-1, 1) for j in ids}
            alpha[q] = max(alpha.values()) + rng.randint(0, 2)
            alpha[p] = alpha[q] - n - 1 - rng.randint(0, 2)
            led = build_ledger(cfg, (0, 0), Handicap(alpha, ids), n)
            assert led.joint_total(p) == 0

        # monotonicity: raising a joint's handicap never loses it rows
        for _ in range(100):
            cfg, n = instance()
            ids = list(range(len(cfg.joints)))
            p = rng.choice(ids)
            alpha = {j: rng.randint(-2, 2) for j in ids}
            lo = build_ledger(cfg, (0, 0), Handicap(alpha, ids), n)
            alpha2 = dict(alpha)
            alpha2[p] += 1
            hi = build_ledger(cfg, (0, 0), Handicap(alpha2, ids), n)
            assert hi.joint_total(p) >= lo.joint_total(p)

        # Lipschitz: a unit handicap change moves any total by <= n+1,
        # the largest level size on a 2-flat
        for _ in range(100):
            cfg, n = instance()
            ids = list(range(len(cfg.joints)))
            p = rng.choice(ids)
            alpha = {j: rng.randint(-2, 2) for j in ids}
            lo = build_ledger(cfg, (0, 0), Handicap(alpha, ids), n)
            alpha2 = dict(alpha)
            alpha2[p] += 1
            hi = build_ledger(cfg, (0, 0), Handicap(alpha2, ids), n)
            for j in ids:
                assert abs(hi.joint_total(j) - lo.joint_total(j)) <= n + 1


def test_acceptance_06_vanishing_rank():
    # product-derivative rows reach full rank C(n+6,6) with zero and
    # balanced handicaps alike
    with budget(600):
        runs = [
            (generate("coordinate-flats", field=F, d=6, k=2), 3),
            (generate("generic-hyperplanes", field=F, seed=0, d=6, h=6), 3),
            (generate("generic-hyperplanes", field=F, seed=0, d=6, h=7), 2),
        ]
        for cfg, n in runs:
            zero = Handicap.zero(range(len(cfg.joints)))
            balanced = balance(cfg, n).alpha
            for h in (zero, balanced):
                ledgers = build_all_ledgers(cfg, h, n)
                got = vanishing_rank_check(cfg, ledgers, n)
                assert got["pass"] and got["rank"] == binom(n + 6, 6)


def test_acceptance_07_grid_line_T_dimensions():
    with budget(60):
        plane = VarietySpec(kind="flat", ambient=2, dim=2, degree=1,
                            point=(0, 0),
                            directions=((1, 0), (0, 1)))

        def charts(pts):
            return [make_chart(plane, p, FQ) for p in pts]

        # line: y^s vanishes to order exactly s at each point of y = 0,
        # so T(v = s, n) is nonempty whenever n >= s
        line_pts = [(i, 0) for i in range(4)]
        for s in (1, 2, 3):
            g = Polynomial.monomial(FQ, 2, (0, s))
            for p in line_pts:
                assert vanishing_order(g, list(p)) == s
            n = s
            assert T_dimension(charts(line_pts), [s] * len(line_pts), n) >= 1

        # 3x3 grid: T(v = s, n) = 0 whenever s*t > n, and every value
        # matches the brute-force elimination oracle
        t = 3
        grid_pts = [(a, b) for a in range(t) for b in range(t)]
        for s in (1, 2):
            for n in range(1, 7):
                got = T_dimension(charts(grid_pts), [s] * 9, n)
                monos = monomials_upto(2, n)
                red = IncrementalRowReducer(FQ)
                for p in grid_pts:
                    shifts = [taylor_shift(Polynomial.monomial(FQ, 2, e),
                                           [FQ.of(x) for x in p]) for e in monos]
                    for gamma in monomials_upto(2, s - 1):
                        red.insert([sh.coefficient(gamma) for sh in shifts])
                oracle = binom(n + 2, 2) - red.rank
                assert got == oracle
                if s * t > n:
                    assert got == 0


def test_acceptance_08_schwartz_zippel():
    with budget(30):
        rng = random.Random(13)
        for _ in range(500):
            nvars = rng.randint(1, 2)
            g = random_poly(rng, FQ, nvars, rng.randint(1, 4), density=0.4)
            if g.is_zero():
                g = Polynomial.monomial(FQ, nvars, (1,) + (0,) * (nvars - 1))
            A = rng.sample(range(-4, 5), rng.randint(2, 4))
            assert schwartz_zippel_mult(g, A)["pass"]
        # tight case: g = xy on {0,1}^2 meets the bound with equality
        tight = schwartz_zippel_mult(parse_poly("1 * x1 x2", FQ, 2), [0, 1])
        assert tight["pass"] and tight["lhs"] == tight["rhs"] == 4


def test_acceptance_09_bound_reports():
    with budget(30):
        planes = generate("generic-hyperplanes", field=F, seed=0, d=6, h=8)
        assert len(planes.families[0].members) == 70
        assert len(planes.joints) == 28
        rep = bound_report(planes)
        assert rep.constant_a == RootValue(Fraction(10, 3), 2)
        assert rep.pass_a and rep.pass_b and rep.applicable
        # 28^2 <= (10/3) * 70^3 exactly
        assert Fraction(28) ** 2 <= rep.rhs_a.Q

        lines = generate("generic-hyperplanes", field=F, seed=0, d=3, h=6)
        assert len(lines.families[0].members) == 15
        assert len(lines.joints) == 20
        rep = bound_report(lines)
        assert rep.constant_a == RootValue(Fraction(2, 9), 2)
        assert rep.pass_a and rep.pass_b
        assert Fraction(20) ** 2 <= rep.rhs_a.Q


def test_acceptance_10_balance_composite():
    with budget(300):
        cfg = grid_line_composite(F, 3, seed=4)
        n = 6
        K = Fraction(9, 28)
        state = balance(cfg, n, tau=K / n)
        assert state.status == "balanced"
        assert state.iteration >= 1
        assert all(row["changed"] for row in state.log)
        grid_ids, line_ids = list(range(9)), list(range(9, 18))
        mean = lambda ids: Fraction(sum(state.alpha.of(j) for j in ids), len(ids))
        assert mean(line_ids) > mean(grid_ids)


def test_acceptance_11_witness_soundness():
    with budget(60):
        rng = random.Random(17)
        flats = []
        for axes in ((0, 1), (2, 3), (4, 5)):
            dirs = []
            for a in axes:
                e = [0] * 6
                e[a] = 1
                dirs.append(tuple(e))
            flats.append(VarietySpec(kind="flat", ambient=6, dim=2, degree=1,
                                     point=(0,) * 6, directions=tuple(dirs)))
        deg = 4
        flat_charts = [make_chart(V, (0,) * 6, F) for V in flats]
        done = 0
        while done < 150:
            g = random_poly(rng, F, 6, deg, density=0.05)
            if g.is_zero():
                continue
            got = hasse_vanishing_witness((0,) * 6, flat_charts, g)
            assert got["pass"]
            assert got["value"] == got["coefficient"] != F.zero
            assert sum(got["orders"]) == got["total_order"]
            done += 1

        circ = circle()
        line = VarietySpec(kind="flat", ambient=2, dim=1, degree=1,
                           point=(0, 0), directions=((0, 1),))
        charts = [make_chart(circ, (0, 0)),
                  make_chart(line, (0, 0), FQ)]
        done = 0
        while done < 50:
            g = random_poly(rng, FQ, 2, deg, density=0.4)
            if g.is_zero():
                continue
            got = hasse_vanishing_witness((0, 0), charts, g)
            assert got["pass"]
            assert got["value"] == got["coefficient"] != FQ.zero
            assert sum(got["orders"]) == got["total_order"]
            done += 1
