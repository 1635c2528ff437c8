"""Charts, derivative operators, and regular-function dimensions."""

import itertools
import math
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointslab import linalg, varieties, verify
from jointslab.balance import build_all_ledgers
from jointslab.basis import Handicap
from jointslab.config import Family, detect_joints
from jointslab.errors import (
    DimensionMismatch,
    NotOnVariety,
    SingularPoint,
    UnsupportedKind,
)
from jointslab.field import FieldSpec, binom
from jointslab.linalg import rank
from jointslab.poly import (
    AffineMap,
    HasseOperator,
    Polynomial,
    affine_coordinates,
    affine_form,
    conjugate_operator,
    expansion_row,
    format_poly,
    monomials_upto,
    parse_poly,
    taylor_shift,
)
from jointslab.varieties import (
    Chart,
    VarietySpec,
    _carrier,
    ambient_equations,
    contains_point,
    derivative_operator,
    derivative_space,
    dim_regular_functions,
    make_chart,
    tangent_space,
    variety_from_json,
    variety_to_json,
    well_defined_check,
)

from oracles import (
    apply,
    carrier_coordinates,
    complete_basis,
    compose,
    flat_chart_parts,
    flat_contains,
    identity_map,
    inverse,
    local_expansion,
    polynomial_in_field,
    pullback,
    restricted,
    restriction_matrix,
    scale,
    series_in_field,
    substitute_through,
)

FQ = FieldSpec("rational")
FP = FieldSpec("prime", 101)
FIELDS = {"F2": FieldSpec("prime", 2), "F3": FieldSpec("prime", 3),
          "Fp": FieldSpec("prime", 2**31 - 1), "Q": FQ}


def circle_through_origin(F=FQ):
    # x1^2 + x2^2 = x2, tangent to the first axis at the origin
    E = parse_poly("1 * x1^2 + 1 * x2^2 + -1 * x2", F, 2)
    return VarietySpec(
        kind="hypersurface", ambient=2, dim=1, degree=2,
        point=(0, 0), directions=((1, 0), (0, 1)), surface_poly=E,
    )


def parametrization(C) -> AffineMap:
    """The chart's parametrization x = A' y + center as an AffineMap, its
    d x c frame completed to a square one by ``complete_basis``: the
    coordinates past c are 0 on V."""
    basis = complete_basis(C.field, [list(col) for col in zip(*C.frame)], C.owner.ambient)
    return AffineMap(C.field, [list(row) for row in zip(*basis)], C.center)


def plane_flat(F=FQ, d=2):
    dirs = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    return VarietySpec(kind="flat", ambient=d, dim=d, degree=1, point=(0,) * d, directions=dirs)


# -- construction & membership ---------------------------------------------


def test_flat_membership_and_tangent():
    V = VarietySpec(
        kind="flat", ambient=3, dim=2, degree=1,
        point=(1, 0, 0), directions=((1, 1, 0), (0, 0, 1)),
    )
    assert contains_point(V, (2, 1, 5), FQ) == [1, 5]
    assert contains_point(V, (2, 2, 0), FQ) is None
    assert_tangent_span(make_chart(V, (1, 0, 0), FQ), [[1, 1, 0], [0, 0, 1]])


def assert_tangent_span(C, expected):
    """The chart's tangent space is spanned by the expected vectors."""
    tangent = tangent_space(C)
    expected = [[FQ.of(x) for x in u] for u in expected]
    k = C.owner.dim
    assert rank(FQ, tangent) == rank(FQ, expected) == rank(FQ, tangent + expected) == k


def test_circle_membership():
    V = circle_through_origin()
    assert contains_point(V, (0, 0), FQ) == [0, 0]
    assert contains_point(V, (0, 1), FQ) == [0, 1]
    assert contains_point(V, (1, 1), FQ) is None


def test_graph_kind():
    # x3 = x1*x2 as a graph over the first two coordinates
    f = parse_poly("1 * x1 x2", FQ, 2)
    V = VarietySpec(
        kind="graph", ambient=3, dim=2, degree=2,
        frame=identity_map(FQ, 3), graph_polys=(f,),
    )
    assert contains_point(V, (2, 3, 6), FQ) == [2, 3, 6]
    assert contains_point(V, (2, 3, 5), FQ) is None
    # tangent at (2,3,6): e1 + 3 e3 and e2 + 2 e3
    assert_tangent_span(make_chart(V, (2, 3, 6), FQ), [[1, 0, 3], [0, 1, 2]])


def test_graph_rejects_linear_terms():
    f = parse_poly("1 * x1", FQ, 2)
    with pytest.raises(ValueError):
        VarietySpec(kind="graph", ambient=3, dim=2, degree=1,
                    frame=identity_map(FQ, 3), graph_polys=(f,))


def test_graph_degree_is_checked():
    # a curve's degree is e = max(1, max_j deg f_j); for k >= 2 the degree
    # lies in [e, e^k]
    def graph(texts, k, degree):
        d = k + len(texts)
        return VarietySpec(kind="graph", ambient=d, dim=k, degree=degree,
                           frame=identity_map(FQ, d),
                           graph_polys=tuple(parse_poly(t, FQ, k) for t in texts))

    for texts, k, ok, bad in ((["1 * x1^2"], 1, (2,), (-3, 0, 1, 3)),
                              (["1 * x1 x2"], 2, (2, 3, 4), (-3, 0, 1, 5)),
                              # (t1, t2, t1^2, t2^2) in F^4 has degree 4
                              (["1 * x1^2", "1 * x2^2"], 2, (4,), (5,)),
                              (["0", "0"], 2, (1,), (2,))):
        for degree in ok:
            assert graph(texts, k, degree).degree == degree
        for degree in bad:
            with pytest.raises(ValueError, match="has degree"):
                graph(texts, k, degree)


@pytest.mark.parametrize("text", ["1", "-3", "0"])
def test_hypersurface_equation_has_degree_at_least_one(text):
    # every member has degree >= 1: a constant equation defines no
    # hypersurface, whatever degree it declares
    E = parse_poly(text, FQ, 2)
    for degree in (0, 1, E.degree):
        with pytest.raises(ValueError):
            VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=degree,
                        point=(0, 0), directions=((1, 0), (0, 1)), surface_poly=E)


# -- charts -----------------------------------------------------------------


def test_circle_chart_series():
    V = circle_through_origin()
    C = make_chart(V, (0, 0))
    assert format_poly(C.series(6)[0]) == "1 * x1^2 + 1 * x1^4 + 2 * x1^6"
    origin = [Fraction(0), Fraction(0)]
    assert apply(inverse(parametrization(C)), origin) == origin


def test_circle_chart_other_point():
    V = circle_through_origin()
    C = make_chart(V, (0, 1))
    # at (0,1) the tangent is again horizontal; series solves
    # x^2 + (1+h)^2 = 1 + h  =>  h = -x^2 - 2x^4 - ...
    h = C.series(4)[0]
    assert h.coefficient((1,)) == 0
    assert not h.is_zero()
    _assert_chart_consistent(C)


def test_chart_not_on_variety():
    V = circle_through_origin()
    with pytest.raises(NotOnVariety):
        make_chart(V, (5, 5))


def test_chart_singular_point():
    # cuspidal curve x2^2 = x1^3: the origin is singular
    E = parse_poly("1 * x2^2 + -1 * x1^3", FQ, 2)
    V = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=3,
                    point=(0, 0), directions=((1, 0), (0, 1)), surface_poly=E)
    with pytest.raises(SingularPoint):
        make_chart(V, (0, 0))
    # away from the cusp the chart exists
    C = make_chart(V, (1, 1))
    _assert_chart_consistent(C)


def test_raw_chart_unsupported():
    # raw ideal slices have no chart anywhere, so they are no variety kind
    with pytest.raises(UnsupportedKind):
        VarietySpec(kind="raw", ambient=2, dim=1, degree=1)


def _assert_chart_consistent(C, N=4):
    """Substituting (t, h(t)) into the framed equations must vanish
    through degree N."""
    for e in ambient_equations(C.owner):
        eq = pullback(e, parametrization(C))
        # framed equations live in chart coordinates; local_expansion takes
        # an ambient polynomial, so push back through the frame first
        assert local_expansion(C, pullback(eq, inverse(parametrization(C))), N).is_zero()


def test_chart_consistency_samples():
    rng = random.Random(0)
    # graph charts at random points
    f = parse_poly("1 * x1 x2 + 2 * x1^3", FQ, 2)
    V = VarietySpec(kind="graph", ambient=3, dim=2, degree=3,
                    frame=identity_map(FQ, 3), graph_polys=(f,))
    for _ in range(5):
        t = [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))]
        p = (t[0], t[1], f.evaluate(t))
        C = make_chart(V, p)
        _assert_chart_consistent(C)
    # hypersurface chart at points of the circle (rational points via
    # the parametrization through t)
    V = circle_through_origin()
    for num, den in ((1, 2), (2, 3), (-1, 3)):
        t = Fraction(num, den)
        x = t / (1 + t * t)
        y = t * t / (1 + t * t)
        assert contains_point(V, (x, y), FQ) == [x, y]
        C = make_chart(V, (x, y))
        _assert_chart_consistent(C)


def off_origin_varieties(F):
    """name -> (variety, a point on it away from the origin), each regular
    at that point in characteristics 2 and 3 as well as over Q."""
    out = {"flat": (VarietySpec(kind="flat", ambient=3, dim=2, degree=1, point=(1, 0, 1),
                                directions=((1, 1, 0), (0, 1, 2))), (2, 1, 1))}
    # in the space curve, x3 = y3 - y2 with y2 and y3 the same graph of y1,
    # so the series terms of x3 cancel
    cubic = "1 * x1^2 + 1 * x1^3"
    graphs = {
        "graph-curve": (AffineMap(F, [[1, 1], [0, 1]], [0, 1]), (cubic,), (2,)),
        "graph-surface": (AffineMap(F, [[1, 0, 1], [0, 1, 0], [0, 0, 1]], [1, 0, 0]),
                          ("1 * x1 x2 + 2 * x2^2",), (1, 1)),
        "graph-space-curve": (AffineMap(F, [[1, 0, 0], [0, 1, 0], [0, 1, 1]], [0, 1, 0]),
                              (cubic, cubic), (2,)),
    }
    for name, (frame, texts, t0) in graphs.items():
        fs = tuple(parse_poly(text, F, len(t0)) for text in texts)
        V = VarietySpec(kind="graph", ambient=frame.dim, dim=len(t0), degree=int(fs[0].degree),
                        frame=frame, graph_polys=fs)
        out[name] = (V, tuple(apply(inverse(frame), [*t0, *(f.evaluate(t0) for f in fs)])))
    # z2^2 + z2 = z1^3 in the plane (1, 0, 1) + span((1, 1, 0), (0, 1, 2)),
    # through z = (0, -1), where d/dz2 = 2 z2 + 1 = -1 in every characteristic
    curve = VarietySpec(kind="hypersurface", ambient=3, dim=1, degree=3, point=(1, 0, 1),
                        directions=((1, 1, 0), (0, 1, 2)),
                        surface_poly=parse_poly("1 * x2^2 + 1 * x2 + -1 * x1^3", F, 2))
    out["hypersurface"] = (curve, (1, -1, -1))
    return out


def _through(coords, N):
    """Coordinates as {beta: c} maps cut to the terms of degree <= N."""
    return [{beta: c for beta, c in x.items() if sum(beta) <= N} for x in coords]


@pytest.mark.parametrize("kind", ["flat", "graph-curve", "graph-surface", "graph-space-curve",
                                  "hypersurface"])
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_coordinates_match_local_expansion(field, kind):
    # x_i(phi(t)) read off the frame equals the expansion of the polynomial
    # x_i through degree N, on fresh charts and on one grown past N first
    F = FIELDS[field]
    V, p = off_origin_varieties(F)[kind]
    grown = make_chart(V, p, F)
    grown.coordinates(6)
    for N in range(5):
        C = make_chart(V, p, F)
        assert any(F.of(x) for x in C.center)
        expected = [local_expansion(C, Polynomial.variable(F, V.ambient, i), N).terms
                    for i in range(V.ambient)]
        assert _through(C.coordinates(N), N) == expected
        assert C.coordinates(N) is C.coordinates(N)
        assert _through(grown.coordinates(N), N) == expected
    if kind != "flat":
        assert any(sum(e) >= 2 for x in expected for e in x)


def _contraction_series(E2, N):
    """Reference solve of E2(t, h(t)) = 0 for the hypersurface series: the
    fixed-point contraction w -> w - E2(t, w) / c, c the s-coefficient."""
    F, k = E2.field, E2.nvars - 1
    c = E2.coefficient((0,) * k + (1,))
    t = [Polynomial.variable(F, k, i) for i in range(k)]
    h = Polynomial.zero(F, k)
    for _ in range(N + 1):
        nxt = h - scale(substitute_through(E2, t + [h], N), F.inv(c))
        if nxt == h:
            break
        h = nxt
    return h


def _contraction_chart(V, p, N, F):
    """A chart with the series solved through degree N by the contraction
    and held as exact.  The frame is that of a fresh chart, which solves
    no series term to build it; the framed defining equation restricted
    to the carrier flat (the trailing coordinates set to 0) is E2 in
    (t_1..t_k, s)."""
    C0 = make_chart(V, p, F)
    k, d = V.dim, V.ambient
    on_flat = [Polynomial.variable(F, k + 1, i) for i in range(k + 1)]
    on_flat += [Polynomial.zero(F, k + 1)] * (d - k - 1)
    E2 = pullback(ambient_equations(V)[0], parametrization(C0)).substitute(on_flat)
    return Chart(V, C0.center, C0.field, C0.frame, C0.z, C0.basis,
                 [_contraction_series(E2, N).terms])


def random_hypersurface(F, rng, k, d, deg):
    """A random degree-deg hypersurface of a random (k+1)-flat of F^d and a
    regular point on it away from the origin."""
    m = k + 1
    draw = (lambda: rng.randrange(F.p)) if F.kind == "prime" else (lambda: rng.randint(-4, 4))
    while True:
        dirs = [[draw() for _ in range(d)] for _ in range(m)]
        base = [draw() for _ in range(d)]
        z0 = [F.of(draw()) for _ in range(m)]
        terms = {e: F.of(draw()) for e in monomials_upto(m, deg) if sum(e)}
        G = Polynomial(F, m, terms)
        E = G - Polynomial.constant(F, m, G.evaluate(z0))
        p = [F.add(F.of(b), sum((F.mul(z, F.of(u[i])) for z, u in zip(z0, dirs)), F.zero))
             for i, b in enumerate(base)]
        if rank(F, dirs) < m or E.degree != deg or not any(p):
            continue
        V = VarietySpec(kind="hypersurface", ambient=d, dim=k, degree=deg,
                        point=tuple(base), directions=tuple(map(tuple, dirs)), surface_poly=E)
        try:
            make_chart(V, p, F)
        except SingularPoint:
            continue
        return V, tuple(p)


def big_hypersurface(rng, k, d, deg, sign):
    """A random degree-deg hypersurface over Q of a random (k+1)-flat of
    Q^d and a regular point on it away from the origin, at carrier
    coordinates with denominators of up to 40 digits.  Its equation is
    sign * K * G, G with coefficients of up to 40 digits over 40 digits and
    K a 10-digit prime, so its integral form has content K or more;
    ``sign`` -1 turns the sign of every chart's s-coefficient."""
    m, big = k + 1, 10**40
    frac = lambda: Fraction(rng.randint(-big, big), rng.randint(1, big))
    while True:
        dirs = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(m)]
        base = [rng.randint(-4, 4) for _ in range(d)]
        z0 = [frac() for _ in range(m)]
        G = Polynomial(FQ, m, {e: frac() for e in monomials_upto(m, deg) if sum(e)})
        E = scale(G - Polynomial.constant(FQ, m, G.evaluate(z0)), sign * 1000000007)
        p = [FQ.add(FQ.of(b), sum((FQ.mul(z, FQ.of(u[i])) for z, u in zip(z0, dirs)), FQ.zero))
             for i, b in enumerate(base)]
        if rank(FQ, dirs) < m or E.degree != deg or not any(base):
            continue
        V = VarietySpec(kind="hypersurface", ambient=d, dim=k, degree=deg,
                        point=tuple(base), directions=tuple(map(tuple, dirs)), surface_poly=E)
        try:
            make_chart(V, p, FQ)
        except SingularPoint:
            continue
        return V, tuple(p)


def _framed_in_field(C):
    """The framed equation E(z + B w) of a hypersurface chart, in
    (t_1..t_k, s), read in field elements."""
    V = C.owner
    return polynomial_in_field(V.surface_poly, affine_coordinates(C.basis, C.z), V.dim + 1)


def _cut(h, N):
    return Polynomial(h.field, h.nvars, {e: c for e, c in h.terms.items() if sum(e) <= N})


@pytest.mark.parametrize("field", ["F3", "Fp", "Q"])
def test_series_solve_matches_contraction(field):
    # a chart grown one degree at a time and a fresh chart grown in one
    # jump to N both equal the contraction through degree N, and the
    # series solved in field elements
    F = FIELDS[field]
    rng = random.Random(7)
    for k in (1, 2):
        for d in (k + 1, k + 2):
            for deg in (2, 3):
                V, p = random_hypersurface(F, rng, k, d, deg)
                stepped = make_chart(V, p, F)
                oracle = Polynomial(F, k, series_in_field(F, _framed_in_field(stepped), 8))
                for N in range(9):
                    ref = _contraction_chart(V, p, N, F)
                    for C in (stepped, make_chart(V, p, F)):
                        assert [_cut(h, N) for h in C.series(N)] == ref.series(N)
                        assert [_cut(h, N) for h in C.series(N)] == [_cut(oracle, N)]
                        assert C.frame == ref.frame and C.center == ref.center
                        assert _through(C.coordinates(N), N) == _through(ref.coordinates(N), N)
                        for e in ambient_equations(V):
                            assert local_expansion(C, e, N).is_zero()
                if deg == 3:
                    assert any(sum(e) >= 3 for e in stepped.series(8)[0].terms)


def test_integral_series_solve_matches_the_field_solve():
    # over Q the series is solved in ints, as sigma(tau) = s(c tau) / c;
    # on hypersurfaces through points with 40-digit denominators, whose
    # framed equations have content > 1 and s-coefficients of either sign,
    # it is the series solved in Fractions at every truncation 0-8, and the
    # charts read it back at their scales in ints
    rng = random.Random(11)
    signs = set()
    for (k, d, deg), sign in itertools.product(((1, 2, 2), (1, 3, 3), (2, 4, 2)), (1, -1)):
        V, p = big_hypersurface(rng, k, d, deg, sign)
        stepped = make_chart(V, p, FQ)
        E2 = _framed_in_field(stepped)
        m = math.lcm(*(c.denominator for c in E2.terms.values()))
        assert math.gcd(*(c.numerator * (m // c.denominator)
                          for c in E2.terms.values())) >= 1000000007
        signs.add(E2.coefficient((0,) * k + (1,)) > 0)
        oracle = Polynomial(FQ, k, series_in_field(FQ, E2, 8))
        assert max(c.denominator for c in oracle.terms.values()) > 10**40
        for N in range(9):
            for C in (stepped, make_chart(V, p, FQ)):
                assert [_cut(h, N) for h in C.series(N)] == [_cut(oracle, N)]
                assert all(type(c) is int
                           for coords in (C.scaled_coordinates(N), C.row_coordinates(N))
                           for x in coords for beta, c in x.items() if any(beta))
        for x, y in zip(stepped.coordinates(8), stepped.scaled_coordinates(8)):
            assert y == {b: c * stepped.scale ** sum(b) for b, c in x.items()}
    assert signs == {True, False}


def _frame_from_columns(F, basis_vectors, center):
    """AffineMap sending center to 0 and basis vector i to e_i, by one
    matrix inverse."""
    d = len(center)
    M = [[basis_vectors[j][i] for j in range(d)] for i in range(d)]  # columns = vectors
    A = linalg.inverse(F, M)
    b = [F.neg(v) for v in linalg.mat_vec(F, A, center)]
    return AffineMap(F, A, b)


def _forward_frame(V, p, F):
    """Reference frame of the chart of V at p, ambient -> local, built
    forwards: from the basis columns by ``_frame_from_columns`` for a flat
    (directions first) and a hypersurface (in-flat tangent vectors, then
    the gradient direction), and for a graph as the shear after the shift
    by y0 = frame(p) after the variety's frame."""
    p = [F.of(x) for x in p]
    d, k = V.ambient, V.dim
    if V.kind == "graph":
        y0 = apply(V.frame, p)
        S = linalg.identity(F, d)
        for j, f in enumerate(V.graph_polys):
            g = taylor_shift(f, y0[:k])
            for i in range(k):
                S[k + j][i] = F.neg(g.coefficient(tuple(int(a == i) for a in range(k))))
        shift = AffineMap(F, linalg.identity(F, d), [F.neg(v) for v in y0])
        return compose(AffineMap(F, S, [0] * d), compose(shift, V.frame))
    dirs = [[F.of(x) for x in u] for u in V.directions]
    if V.kind == "flat":
        return _frame_from_columns(F, complete_basis(F, dirs, d), p)
    m = k + 1
    E1 = taylor_shift(V.surface_poly, carrier_coordinates(V, p, F))
    grad = [E1.coefficient(tuple(int(j == i) for j in range(m))) for i in range(m)]
    i0 = next(i for i, a in enumerate(grad) if a)
    cols = []
    for i in range(m):
        if i != i0:
            v = [F.zero] * m
            v[i], v[i0] = F.one, F.neg(F.div(grad[i], grad[i0]))
            cols.append(v)
    cols.append([F.one if j == i0 else F.zero for j in range(m)])
    # the ambient image sum_j v_j dirs_j of each in-flat vector v
    amb = []
    for v in cols:
        x = [F.zero] * d
        for c, u in zip(v, dirs):
            x = [F.add(a, F.mul(c, b)) for a, b in zip(x, u)]
        amb.append(x)
    basis = complete_basis(F, amb, d)
    return _frame_from_columns(F, basis, p)


@pytest.mark.parametrize("field", ["F3", "Fp", "Q"])
def test_parametrization_is_the_inverted_frame(field):
    # the chart's frame rows and center, read off the basis columns, equal
    # the inverse of the forward frame entry for entry, in value and in
    # type
    F = FIELDS[field]
    rng = random.Random(11)
    cases = list(off_origin_varieties(F).values())
    cases += [random_hypersurface(F, rng, k, d, deg)
              for k in (1, 2) for d in (k + 1, k + 2) for deg in (2, 3)]
    for V, p in cases:
        got = make_chart(V, p, F)
        want = inverse(_forward_frame(V, p, F))
        ours = parametrization(got)
        for a, b in ((ours.matrix, want.matrix), ([got.center], [want.translation])):
            assert [list(row) for row in a] == b
            assert [[type(x) for x in row] for row in a] == [[type(x) for x in row] for row in b]
        assert got.center == tuple(F.of(x) for x in p)


def _flat_cases(F, rng):
    """(flat, points) pairs: k-flats of F^4 with 0/1 and with small integer
    directions, each with points on it and drawn at random, and over Q a
    flat with a non-integral point and directions."""
    cases = []
    for k in (1, 2, 3):
        for top in (1, 3):
            while True:
                dirs = [[rng.randint(-top + 1, top) for _ in range(4)] for _ in range(k)]
                if rank(F, dirs) == k:
                    break
            base = [rng.randint(-top + 1, top) for _ in range(4)]
            on = [[b + sum(rng.randint(-2, 2) * u[i] for u in dirs) for i, b in enumerate(base)]
                  for _ in range(3)]
            drawn = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
            V = VarietySpec(kind="flat", ambient=4, dim=k, degree=1, point=tuple(base),
                            directions=tuple(map(tuple, dirs)))
            cases.append((V, on + drawn))
    if not F.p:
        V, p = _rational_flat(rng, 2, 4)
        while all(x.denominator == 1 for x in V.point):
            V, p = _rational_flat(rng, 2, 4)
        cases.append((V, [p, tuple(x + 1 for x in p)]))
    return cases


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_flat_incidence_worked_out_once_matches_the_per_point_oracles(field):
    # contains_point evaluates the flat's equations, kept per (member,
    # field), and make_chart reads the basis completed once: both agree
    # with the per-point rank test and complete_basis chart, in value and
    # type.  A spec with integer data is also read over Q, so it keeps one
    # entry per field; no two charts share a row; and the filled memo is
    # no part of the spec's value or hash
    F = FIELDS[field]
    rng = random.Random(f"incidence:{field}")
    met = set()
    for V, points in _flat_cases(F, rng):
        fields = [F] if not F.p or any(type(x) is Fraction for x in V.point) else [F, FQ]
        rows = []
        for Ff in fields:
            for q in points:
                on = flat_contains(V, q, Ff)
                met.add(on)
                assert (contains_point(V, q, Ff) is not None) == on
                if not on:
                    with pytest.raises(NotOnVariety):
                        make_chart(V, q, Ff)
                    continue
                C = make_chart(V, q, Ff)
                got = (C.center, C.frame, C.scale, tangent_space(C))
                want = flat_chart_parts(V, q, Ff)
                assert got == want
                assert [type(x) for row in C.frame for x in row] == [
                    type(x) for row in want[1] for x in row]
                rows += C.frame
        assert len({id(row) for row in rows}) == len(rows)
        assert set(V._carriers) == set(fields)
        fresh = VarietySpec(kind="flat", ambient=V.ambient, dim=V.dim, degree=1,
                            point=V.point, directions=V.directions)
        assert not fresh._carriers
        assert V == fresh and hash(V) == hash(fresh)
    assert met == {True, False}


@pytest.mark.parametrize("field", ["F3", "Fp", "Q"])
def test_hypersurface_incidence_reads_its_carrier_flat(field):
    # membership in a hypersurface's carrier flat and the coordinates in
    # its directions, kept per (member, field), agree with one solve per
    # point, on the flat and off it
    F = FIELDS[field]
    rng = random.Random(f"carrier:{field}")
    met = set()
    for k in (1, 2):
        for d in (k + 1, k + 2):
            V, p = random_hypersurface(F, rng, k, d, 2)
            dirs = [[F.of(x) for x in u] for u in V.directions]
            along = [[F.add(a, F.mul(F.of(c), u[i])) for i, a in enumerate(p)]
                     for c, u in zip(range(1, k + 2), dirs)]
            drawn = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(3)]
            car = _carrier(V, F)
            for q in [p] + along + drawn:
                z = carrier_coordinates(V, q, F)
                met.add(z is None)
                q = [F.of(x) for x in q]
                assert (car.coordinates(q) if car.holds(q) else None) == z
                on = z is not None and not V.surface_poly.evaluate(z)
                assert contains_point(V, q, F) == (z if on else None)
            assert make_chart(V, p, F).center == tuple(F.of(x) for x in p)
            assert set(V._carriers) == {F}
    assert met == {True, False}


def test_curved_members_are_read_over_their_own_field_only():
    # a graph's frame and its inverse, and a hypersurface's equation, hold
    # their field: read over another, a carrier would mix elements of two
    # fields, so it is refused
    graph = VarietySpec(kind="graph", ambient=2, dim=1, degree=2,
                        frame=AffineMap(FQ, [[1, 0], [0, 2]], [0, 0]),
                        graph_polys=(parse_poly("1 * x1^2", FQ, 1),))
    for V in (graph, circle_through_origin()):
        with pytest.raises(DimensionMismatch):
            contains_point(V, (0, 0), FP)
        assert contains_point(V, (0, 0), FQ) == [0, 0]


def test_a_curved_chart_reads_its_carrier_coordinates_once(monkeypatch):
    # the membership test and the chart both read z = W (p - base):
    # make_chart computes it once, in its one contains_point, and keeps it,
    # so a flat's ledger rows read the chart's z and not the carrier
    cls = type(_carrier(plane_flat(), FQ))
    real, calls = cls.coordinates, []

    def coordinates(self, p):
        calls.append(tuple(p))
        return real(self, p)

    monkeypatch.setattr(cls, "coordinates", coordinates)
    graph = VarietySpec(kind="graph", ambient=3, dim=2, degree=2, frame=identity_map(FQ, 3),
                        graph_polys=(parse_poly("1 * x1 x2", FQ, 2),))
    for V, p, reads in [(graph, (2, 3, 6), 1), (circle_through_origin(), (0, 1), 1),
                        (plane_flat(), (4, 5), 1)]:
        calls.clear()
        C = make_chart(V, p, FQ)
        assert len(calls) == reads
    calls.clear()
    C.row_coordinates(2)
    assert calls == []


def test_tangent_space_matches_directions():
    V = circle_through_origin()
    C = make_chart(V, (0, 0))
    assert tangent_space(C) == [[Fraction(1), Fraction(0)]]


# -- derivative operators ---------------------------------------------------


def test_circle_operators():
    V = circle_through_origin()
    C = make_chart(V, (0, 0))
    D0 = derivative_operator(C, (0,), ambient=False)
    D1 = derivative_operator(C, (1,), ambient=False)
    D2 = derivative_operator(C, (2,), ambient=False)
    D3 = derivative_operator(C, (3,), ambient=False)
    one = FQ.one
    assert D0.combo == {(0, 0): one}
    assert D1.combo == {(1, 0): one}
    assert D2.combo == {(2, 0): one, (0, 1): one}
    assert D3.combo == {(3, 0): one, (1, 1): one}


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_derivative_operator_is_the_conjugated_framed_operator(field):
    # the ambient operator, one expansion row along the centered chart
    # coordinates, equals the framed operator conjugated with the chart's
    # parametrization, on every off-origin chart and every |gamma| <= 5
    F = FIELDS[field]
    for V, p in off_origin_varieties(F).values():
        C = make_chart(V, p, F)
        for gamma in monomials_upto(V.dim, 5):
            framed = derivative_operator(C, gamma, ambient=False)
            assert framed.nvars == len(C.frame[0])
            # the coordinates past c are 0 on V, so no operator reads them
            pad = (0,) * (V.ambient - framed.nvars)
            square = HasseOperator(F, V.ambient, {w + pad: c for w, c in framed.combo.items()})
            assert derivative_operator(C, gamma) == conjugate_operator(square, parametrization(C))


def test_operator_leading_part_is_hasse():
    # the top-order part of the framed operator is exactly Hasse^gamma
    f = parse_poly("3 * x1^2 + 1 * x1 x2 + -2 * x2^2", FQ, 2)
    V = VarietySpec(kind="graph", ambient=3, dim=2, degree=2,
                    frame=identity_map(FQ, 3), graph_polys=(f,))
    C = make_chart(V, (0, 0, 0))
    for gamma in ((2, 0), (1, 1), (0, 3), (2, 2)):
        D = derivative_operator(C, gamma, ambient=False)
        assert {w: c for w, c in D.combo.items() if sum(w) == D.order} == {gamma + (0,): FQ.one}


def test_flat_operators_are_plain_hasse():
    V = VarietySpec(kind="flat", ambient=3, dim=2, degree=1,
                    point=(0, 0, 0), directions=((1, 0, 0), (0, 1, 0)))
    C = make_chart(V, (0, 0, 0), FQ)
    D = derivative_operator(C, (1, 2))
    assert D.combo == {(1, 2, 0): FQ.one}


def test_derivative_space_size():
    V = circle_through_origin()
    C = make_chart(V, (0, 0))
    for r in range(4):
        assert len(derivative_space(C, r)) == binom(r + 0, 0)  # one gamma in 1 variable
    f = parse_poly("1 * x1^2", FQ, 2)
    V2 = VarietySpec(kind="graph", ambient=3, dim=2, degree=2,
                     frame=identity_map(FQ, 3), graph_polys=(f,))
    C2 = make_chart(V2, (0, 0, 0))
    assert len(derivative_space(C2, 3)) == 4  # C(3+1, 1)


def test_well_defined_on_random_charts():
    rng = random.Random(1)
    V = circle_through_origin(FP)
    C = make_chart(V, (0, 0))
    for r in range(5):
        D = derivative_operator(C, (r,))
        assert well_defined_check(C, D, trials=8, seed=rng.randint(0, 99))["pass"]
    f = parse_poly("1 * x1 x2", FP, 2)
    Vg = VarietySpec(kind="graph", ambient=3, dim=2, degree=2,
                     frame=AffineMap(FP, [[1, 1, 0], [0, 1, 0], [1, 0, 1]], [2, 0, 1]),
                     graph_polys=(f,))
    p = apply(inverse(Vg.frame), [1, 2, 2])
    Cg = make_chart(Vg, p)
    for gamma in ((1, 0), (1, 1), (2, 1)):
        D = derivative_operator(Cg, gamma)
        assert well_defined_check(Cg, D, trials=6, seed=3)["pass"]


def test_well_defined_on_flats():
    # a flat carries no field, so the check takes its chart's: the chart's
    # own operators kill the flat's equations, and a Hasse derivative along
    # a direction off the flat does not
    axis = VarietySpec(kind="flat", ambient=2, dim=1, degree=1, point=(0, 0),
                       directions=((1, 0),))
    plane, _ = off_origin_varieties(FIELDS["F3"])["flat"]
    cases = ((axis, (0, 0), FQ, (0, 1)), (plane, (2, 1, 1), FIELDS["F3"], (0, 0, 1)))
    for V, p, F, normal in cases:
        C = make_chart(V, p, F)
        for gamma in monomials_upto(V.dim, 3):
            assert well_defined_check(C, derivative_operator(C, gamma), trials=6)["pass"]
        off = well_defined_check(C, HasseOperator(F, V.ambient, {normal: F.one}), trials=6)
        assert not off["pass"] and off["trial"] == 0
        assert all(e.evaluate(p) == 0 for e in ambient_equations(V, F))


def test_ambient_operator_evaluates_local_coefficient():
    # D^gamma g(center) equals the x^gamma coefficient of the local expansion
    V = circle_through_origin()
    C = make_chart(V, (0, 0))
    rng = random.Random(2)
    for _ in range(5):
        terms = {}
        for e in monomials_upto(2, 4):
            c = rng.randint(-4, 4)
            if c:
                terms[e] = FQ.of(c)
        g = Polynomial(FQ, 2, terms)
        local = local_expansion(C, g, 4)
        for r in range(5):
            D = derivative_operator(C, (r,))
            assert D.evaluate(g, C.center) == local.coefficient((r,))


# -- dimensions -------------------------------------------------------------


def test_dim_regular_functions_flat():
    V = VarietySpec(kind="flat", ambient=6, dim=2, degree=1,
                    point=(0,) * 6,
                    directions=((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)))
    for n in range(5):
        assert dim_regular_functions(V, n, FQ) == binom(n + 2, 2)


def test_dim_regular_functions_hypersurface():
    V = circle_through_origin()
    # conic in the plane: C(n+2,2) - C(n,2)
    for n in range(1, 6):
        assert dim_regular_functions(V, n, FQ) == binom(n + 2, 2) - binom(n, 2)


def test_dim_regular_functions_graph():
    # parabola x2 = x1^2 as a graph
    f = parse_poly("1 * x1^2", FQ, 1)
    Vg = VarietySpec(kind="graph", ambient=2, dim=1, degree=2,
                     frame=identity_map(FQ, 2), graph_polys=(f,))
    for n in range(1, 5):
        # the parabola is a degree-2 rational curve: restriction of
        # F[x,y]_{<=n} has dimension 2n+1
        assert dim_regular_functions(Vg, n, FQ) == 2 * n + 1


def _substitution_dim(V, n, F):
    """dim R_{V, <= n} of a graph by substitution: the rank of the map
    F[y]_{<=n} -> F[t], y -> (t, f(t)), one row per monomial of degree at
    most n, over the monomials of t up to degree n deg f."""
    k = V.dim
    maxdeg = max([1] + [int(f.degree) for f in V.graph_polys if not f.is_zero()])
    index = {e: i for i, e in enumerate(monomials_upto(k, n * maxdeg))}
    images = [Polynomial.variable(F, k, i) for i in range(k)] + list(V.graph_polys)
    rows = []
    for mono in monomials_upto(V.ambient, n):
        restricted = Polynomial.monomial(F, V.ambient, mono).substitute(images)
        row = [F.zero] * len(index)
        for e, c in restricted.terms.items():
            row[index[e]] = c
        rows.append(row)
    return rank(F, rows)


def _random_graph_polys(F, rng, k, count, deg):
    """count polynomials in k variables with no constant or linear part,
    the first of degree deg; over Q with rational coefficients."""
    if F.p:
        draw = lambda: F.of(rng.randrange(F.p))  # noqa: E731
    else:
        draw = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 6))  # noqa: E731
    polys = []
    for i in range(count):
        terms = {e: draw() for e in monomials_upto(k, deg) if sum(e) >= 2}
        if i == 0:
            terms[(deg,) + (0,) * (k - 1)] = F.one
        polys.append(Polynomial(F, k, terms))
    return tuple(polys)


def test_graph_dimension_is_computed_once_per_member_and_n(monkeypatch):
    # a graph's dim R_{V,<=n} is a rank of expansion rows, kept on the
    # member per (n, field): a second call, as every ledger build of the
    # member makes, reads no row
    F, calls = FQ, []
    real = varieties.expansion_row

    def row(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(varieties, "expansion_row", row)
    f = parse_poly("1/2 * x1^2 + 3 * x1 x2", F, 2)
    V = VarietySpec(kind="graph", ambient=3, dim=2, degree=2, frame=identity_map(F, 3),
                    graph_polys=(f,))
    first = [dim_regular_functions(V, n, F) for n in (1, 2, 3)]
    made = len(calls)
    assert made and first == [dim_regular_functions(V, n) for n in (1, 2, 3)]
    assert len(calls) == made
    fresh = VarietySpec(kind="graph", ambient=3, dim=2, degree=2, frame=identity_map(F, 3),
                        graph_polys=(f,))
    assert [dim_regular_functions(fresh, n, F) for n in (1, 2, 3)] == first == [
        _substitution_dim(V, n, F) for n in (1, 2, 3)]


@pytest.mark.parametrize("field", ["F3", "Fp", "Q"])
def test_dim_regular_functions_graph_matches_substitution(field):
    F = FIELDS[field]
    rng = random.Random(5)
    for k in (1, 2):
        for d in (k + 1, k + 2):
            for deg in (2, 3):
                fs = _random_graph_polys(F, rng, k, d - k, deg)
                V = VarietySpec(kind="graph", ambient=d, dim=k, degree=deg,
                                frame=identity_map(F, d), graph_polys=fs)
                for n in range(1, 4 if k == 1 else 3):
                    assert dim_regular_functions(V, n, F) == _substitution_dim(V, n, F)


def test_ambient_equations_vanish_on_variety():
    V = circle_through_origin()
    for eq in ambient_equations(V):
        assert eq.evaluate([0, 0]) == 0
        assert eq.evaluate([Fraction(2, 5), Fraction(4, 5)]) != 0 or True
    f = parse_poly("1 * x1 x2", FQ, 2)
    Vg = VarietySpec(kind="graph", ambient=3, dim=2, degree=2,
                     frame=identity_map(FQ, 3), graph_polys=(f,))
    for eq in ambient_equations(Vg):
        assert eq.evaluate([2, 3, 6]) == 0


@pytest.mark.parametrize("field", ["F3", "Fp", "Q"])
def test_ambient_equations_restrict_to_the_member(field):
    # read along its carrier flat x = base + sum_i z_i dirs_i, a
    # hypersurface's first ambient equation is its equation E(z) term for
    # term and the flat's equations vanish; a graph's equations are
    # y_{k+j} - f_j pulled back through its frame
    F = FIELDS[field]
    rng = random.Random(f"equations:{field}")
    for k in (1, 2):
        for d in (k + 1, k + 2):
            V, _ = random_hypersurface(F, rng, k, d, rng.choice((2, 3)))
            dirs = [[F.of(x) for x in u] for u in V.directions]
            along = [affine_form(F, [u[i] for u in dirs], F.of(b)) for i, b in enumerate(V.point)]
            first, *flat = ambient_equations(V)
            assert first.substitute(along) == V.surface_poly
            assert len(flat) == d - k - 1
            assert all(e.substitute(along).is_zero() for e in flat)
    for V, _ in off_origin_varieties(F).values():
        if V.kind == "graph":
            d, k = V.ambient, V.dim
            lifted = [Polynomial(F, d, {e + (0,) * (d - k): c for e, c in f.terms.items()})
                      for f in V.graph_polys]
            want = [pullback(Polynomial.variable(F, d, k + j) - f, V.frame)
                    for j, f in enumerate(lifted)]
            assert ambient_equations(V) == want


# -- integer rows over Q ----------------------------------------------------


def _rational(rng, top=4, den=6):
    return Fraction(rng.randint(-top, top), rng.randint(1, den))


def _rational_flat(rng, k, d):
    """A k-flat of Q^d with a rational point and directions, and a point
    on it away from the origin."""
    while True:
        dirs = [[_rational(rng) for _ in range(d)] for _ in range(k)]
        base = [_rational(rng) for _ in range(d)]
        a = [rng.randint(-2, 2) for _ in range(k)]
        p = tuple(b + sum(ai * u[i] for ai, u in zip(a, dirs)) for i, b in enumerate(base))
        if rank(FQ, dirs) == k and any(p):
            return VarietySpec(kind="flat", ambient=d, dim=k, degree=1, point=tuple(base),
                               directions=tuple(map(tuple, dirs))), p


def _rational_graph(rng, k, d):
    """A graph with rational coefficients over a rational frame of Q^d, and
    a point on it away from the origin."""
    while True:
        M = [[_rational(rng, 3, 4) for _ in range(d)] for _ in range(d)]
        if rank(FQ, M) < d:
            continue
        frame = AffineMap(FQ, M, [_rational(rng, 3, 4) for _ in range(d)])
        deg = rng.choice((2, 3))
        fs = _random_graph_polys(FQ, rng, k, d - k, deg)
        t0 = [_rational(rng, 3, 3) for _ in range(k)]
        p = tuple(apply(inverse(frame), [*t0, *(f.evaluate(t0) for f in fs)]))
        if any(p):
            return VarietySpec(kind="graph", ambient=d, dim=k, degree=deg, frame=frame,
                               graph_polys=fs), p


def _joint_config(V, p):
    """V and a flat through p along rational multiples of the standard
    vectors that complete V's tangent space there: one joint, at p."""
    k, d = V.dim, V.ambient
    extra = complete_basis(FQ, tangent_space(make_chart(V, p, FQ)), d)[k:]
    dirs = tuple(tuple(Fraction(x, j + 2) for x in u) for j, u in enumerate(extra))
    flat = VarietySpec(kind="flat", ambient=d, dim=d - k, degree=1, point=p, directions=dirs)
    if d == 2 * k:
        families = [Family(k, 2, [V, flat])]
    else:
        families = [Family(k, 1, [V]), Family(d - k, 1, [flat])]
    cfg = detect_joints(FQ, families, candidates=[p])
    assert len(cfg.joints) == 1
    return cfg


@given(kind=st.sampled_from(["flat", "graph", "hypersurface"]), k=st.integers(1, 2),
       extra=st.integers(1, 2), seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_scaled_rows_are_the_exact_rows_times_a_row_scalar(recorded_inserts, kind, k, extra,
                                                            seed):
    # over Q each chart's coordinates read at lambda t, lambda its scale,
    # are ints in every degree >= 1, and so are its row coordinates at its
    # row scale; every ledger row, over the coordinates u of the space the
    # chart reads its rows in, times the restriction matrix is
    # lambda^|gamma| times the row read along the exact coordinates, with
    # lambda the row scale, and every rank-check row is prod_i
    # lambda_i^|gamma_i| times that exact row, with lambda_i the scales
    rng = random.Random(seed)
    d, n, N = k + extra, 2, 10
    if kind == "flat":
        V, p = _rational_flat(rng, k, d)
    elif kind == "graph":
        V, p = _rational_graph(rng, k, d)
    else:
        V, p = random_hypersurface(FQ, rng, k, d, rng.choice((2, 3)))
    cfg = _joint_config(V, p)
    ledgers = build_all_ledgers(cfg, Handicap.zero([0]), n)
    for C in cfg.charts[0].values():
        lam = C.scale
        assert type(lam) is int and lam >= 1
        assert type(C.row_scale) is int and C.row_scale >= 1
        for x, y in zip(C.coordinates(N), C.scaled_coordinates(N)):
            assert x.keys() == y.keys()
            for beta, c in x.items():
                assert y[beta] == c * lam ** sum(beta)
                assert type(y[beta]) is int or not any(beta)
        assert all(type(c) is int or not any(beta)
                   for x in C.row_coordinates(N) for beta, c in x.items())
        for m, memo in C.expansion_memos.items():
            R = restriction_matrix(C.owner, FQ, m)
            for gamma, coeffs in memo.items():
                assert len(coeffs) == len(R)
                exact = expansion_row(FQ, C.coordinates(sum(gamma)), m, gamma, {})
                assert restricted(FQ, coeffs, R) == [C.row_scale ** sum(gamma) * c for c in exact]
    with recorded_inserts() as inserted:
        got = verify.vanishing_rank_check(cfg, ledgers, n)
    charts = cfg.designated_charts(0)
    gammas = [ledgers[ref].selected_gammas(0) for ref in cfg.chosen[0]]
    coords = verify.joint_coordinates(cfg.joints[0],
                                      [(C.owner.dim, C.coordinates(N)) for C in charts])
    # D, the highest t-degree of the joint coordinates the check read
    read = verify.joint_coordinates(cfg.joints[0], [
        (C.owner.dim, C.scaled_coordinates(max(map(sum, gs)))) for C, gs in zip(charts, gammas)
    ])
    top = n * max(sum(beta) for x in read for beta in x)
    exact, built = [], []
    for pick in itertools.product(*gammas):
        scalar = prod(C.scale ** sum(g) for C, g in zip(charts, pick))
        exact.append([scalar * c for c in expansion_row(FQ, coords, n, sum(pick, ()), {})])
        built.append(sum(map(sum, pick)) <= top)
    # the reducer receives the exact rows of the picks built, in order,
    # and every pick skipped has a zero exact row
    rows = got["rows"]
    assert inserted == [row for row, b in zip(exact[:rows], built) if b]
    assert inserted and not any(any(row) for row, b in zip(exact, built) if not b)
    # rows counts every pick visited, skipped or not: the check stops at
    # the first pick whose row brings the rank to C(n+d, d)
    assert rank(FQ, exact[:rows]) == got["rank"]
    assert rows == len(exact) or rank(FQ, exact[:rows - 1]) < got["expected"] == got["rank"]


# -- serialization ----------------------------------------------------------


def test_variety_json_roundtrip():
    specs = [
        VarietySpec(kind="flat", ambient=3, dim=1, degree=1,
                    point=(FQ.of(1), FQ.of(0), FQ.of(2)),
                    directions=((FQ.of(1), FQ.of(1), FQ.of(0)),)),
        circle_through_origin(),
        VarietySpec(kind="graph", ambient=3, dim=2, degree=2,
                    frame=identity_map(FQ, 3),
                    graph_polys=(parse_poly("1 * x1 x2", FQ, 2),)),
    ]
    for V in specs:
        back = variety_from_json(variety_to_json(V, FQ), FQ)
        assert variety_to_json(back, FQ) == variety_to_json(V, FQ)
