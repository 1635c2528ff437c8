"""Charts, derivative operators, and regular-function dimensions."""

import random
from fractions import Fraction

import pytest

from jointslab.errors import (
    NotOnVariety,
    SingularPoint,
    TruncationTooLow,
    UnsupportedKind,
)
from jointslab.field import FieldSpec, binom
from jointslab.linalg import rank
from jointslab.poly import (
    AffineMap,
    HasseOperator,
    Polynomial,
    format_poly,
    monomials_upto,
    parse_poly,
)
from jointslab.varieties import (
    VarietySpec,
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

FQ = FieldSpec("rational")
FP = FieldSpec("prime", 101)


def circle_through_origin(F=FQ):
    # x1^2 + x2^2 = x2, tangent to the first axis at the origin
    E = parse_poly("1 * x1^2 + 1 * x2^2 + -1 * x2", F, 2)
    return VarietySpec(
        kind="hypersurface", ambient=2, dim=1, degree=2,
        point=(0, 0), directions=((1, 0), (0, 1)), surface_poly=E,
    )


def plane_flat(F=FQ, d=2):
    dirs = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    return VarietySpec(kind="flat", ambient=d, dim=d, degree=1, point=(0,) * d, directions=dirs)


# -- construction & membership ---------------------------------------------


def test_flat_membership_and_tangent():
    V = VarietySpec(
        kind="flat", ambient=3, dim=2, degree=1,
        point=(1, 0, 0), directions=((1, 1, 0), (0, 0, 1)),
    )
    assert contains_point(V, (2, 1, 5), FQ)
    assert not contains_point(V, (2, 2, 0), FQ)
    assert_tangent_span(make_chart(V, (1, 0, 0), 1, FQ), [[1, 1, 0], [0, 0, 1]])


def assert_tangent_span(C, expected):
    """The chart's tangent space is spanned by the expected vectors."""
    tangent = tangent_space(C)
    expected = [[FQ.of(x) for x in u] for u in expected]
    k = C.owner.dim
    assert rank(FQ, tangent) == rank(FQ, expected) == rank(FQ, tangent + expected) == k


def test_circle_membership():
    V = circle_through_origin()
    assert contains_point(V, (0, 0), FQ)
    assert contains_point(V, (0, 1), FQ)
    assert not contains_point(V, (1, 1), FQ)


def test_graph_kind():
    # x3 = x1*x2 as a graph over the first two coordinates
    f = parse_poly("1 * x1 x2", FQ, 2)
    V = VarietySpec(
        kind="graph", ambient=3, dim=2, degree=2,
        frame=AffineMap.identity(FQ, 3), graph_polys=(f,),
    )
    assert contains_point(V, (2, 3, 6), FQ)
    assert not contains_point(V, (2, 3, 5), FQ)
    # tangent at (2,3,6): e1 + 3 e3 and e2 + 2 e3
    assert_tangent_span(make_chart(V, (2, 3, 6), 1, FQ), [[1, 0, 3], [0, 1, 2]])


def test_graph_rejects_linear_terms():
    f = parse_poly("1 * x1", FQ, 2)
    with pytest.raises(ValueError):
        VarietySpec(kind="graph", ambient=3, dim=2, degree=1,
                    frame=AffineMap.identity(FQ, 3), graph_polys=(f,))


# -- charts -----------------------------------------------------------------


def test_circle_chart_series():
    V = circle_through_origin()
    C = make_chart(V, (0, 0), 6)
    assert format_poly(C.series[0]) == "1 * x1^2 + 1 * x1^4 + 2 * x1^6"
    assert C.frame.apply([Fraction(0), Fraction(0)]) == [Fraction(0), Fraction(0)]


def test_circle_chart_other_point():
    V = circle_through_origin()
    C = make_chart(V, (0, 1), 4)
    # at (0,1) the tangent is again horizontal; series solves
    # x^2 + (1+h)^2 = 1 + h  =>  h = -x^2 - 2x^4 - ...
    h = C.series[0]
    assert h.coefficient((1,)) == 0
    assert not h.is_zero()
    _assert_chart_consistent(C)


def test_chart_not_on_variety():
    V = circle_through_origin()
    with pytest.raises(NotOnVariety):
        make_chart(V, (5, 5), 4)


def test_chart_singular_point():
    # cuspidal curve x2^2 = x1^3: the origin is singular
    E = parse_poly("1 * x2^2 + -1 * x1^3", FQ, 2)
    V = VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=3,
                    point=(0, 0), directions=((1, 0), (0, 1)), surface_poly=E)
    with pytest.raises(SingularPoint):
        make_chart(V, (0, 0), 4)
    # away from the cusp the chart exists
    C = make_chart(V, (1, 1), 4)
    _assert_chart_consistent(C)


def test_raw_chart_unsupported():
    g = parse_poly("1 * x1", FQ, 2)
    V = VarietySpec(kind="raw", ambient=2, dim=1, degree=1,
                    slice_polys=(g,), slice_degree=1)
    with pytest.raises(UnsupportedKind):
        make_chart(V, (0, 0), 3)


def _assert_chart_consistent(C):
    """Substituting (t, h(t)) into the framed equations must vanish to the
    chart truncation."""
    from jointslab.poly import pullback

    for eq in C.framed_equations():
        # framed equations live in chart coordinates; local_expansion takes
        # an ambient polynomial, so push back through the frame first
        assert C.local_expansion(pullback(eq, C.frame)).is_zero()


def test_chart_consistency_samples():
    rng = random.Random(0)
    # graph charts at random points
    f = parse_poly("1 * x1 x2 + 2 * x1^3", FQ, 2)
    V = VarietySpec(kind="graph", ambient=3, dim=2, degree=3,
                    frame=AffineMap.identity(FQ, 3), graph_polys=(f,))
    for _ in range(5):
        t = [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))]
        p = (t[0], t[1], f.evaluate(t))
        C = make_chart(V, p, 4)
        _assert_chart_consistent(C)
    # hypersurface chart at points of the circle (rational points via
    # the parametrization through t)
    V = circle_through_origin()
    for num, den in ((1, 2), (2, 3), (-1, 3)):
        t = Fraction(num, den)
        x = t / (1 + t * t)
        y = t * t / (1 + t * t)
        assert contains_point(V, (x, y), FQ)
        C = make_chart(V, (x, y), 4)
        _assert_chart_consistent(C)


def test_tangent_space_matches_directions():
    V = circle_through_origin()
    C = make_chart(V, (0, 0), 4)
    assert tangent_space(C) == [[Fraction(1), Fraction(0)]]


# -- derivative operators ---------------------------------------------------


def test_circle_operators():
    V = circle_through_origin()
    C = make_chart(V, (0, 0), 6)
    D0 = derivative_operator(C, (0,), ambient=False)
    D1 = derivative_operator(C, (1,), ambient=False)
    D2 = derivative_operator(C, (2,), ambient=False)
    D3 = derivative_operator(C, (3,), ambient=False)
    one = FQ.one
    assert D0.combo == {(0, 0): one}
    assert D1.combo == {(1, 0): one}
    assert D2.combo == {(2, 0): one, (0, 1): one}
    assert D3.combo == {(3, 0): one, (1, 1): one}


def test_operator_top_part_is_hasse():
    # the top-order part of the framed operator is exactly Hasse^gamma
    f = parse_poly("3 * x1^2 + 1 * x1 x2 + -2 * x2^2", FQ, 2)
    V = VarietySpec(kind="graph", ambient=3, dim=2, degree=2,
                    frame=AffineMap.identity(FQ, 3), graph_polys=(f,))
    C = make_chart(V, (0, 0, 0), 5)
    for gamma in ((2, 0), (1, 1), (0, 3), (2, 2)):
        D = derivative_operator(C, gamma, ambient=False)
        assert D.top_part().combo == {gamma + (0,): FQ.one}


def test_flat_operators_are_plain_hasse():
    V = VarietySpec(kind="flat", ambient=3, dim=2, degree=1,
                    point=(0, 0, 0), directions=((1, 0, 0), (0, 1, 0)))
    C = make_chart(V, (0, 0, 0), 4, FQ)
    D = derivative_operator(C, (1, 2))
    assert D.combo == {(1, 2, 0): FQ.one}


def test_derivative_space_size():
    V = circle_through_origin()
    C = make_chart(V, (0, 0), 5)
    for r in range(4):
        assert len(derivative_space(C, r)) == binom(r + 0, 0)  # one gamma in 1 variable
    f = parse_poly("1 * x1^2", FQ, 2)
    V2 = VarietySpec(kind="graph", ambient=3, dim=2, degree=2,
                     frame=AffineMap.identity(FQ, 3), graph_polys=(f,))
    C2 = make_chart(V2, (0, 0, 0), 4)
    assert len(derivative_space(C2, 3)) == 4  # C(3+1, 1)


def test_truncation_guard():
    V = circle_through_origin()
    C = make_chart(V, (0, 0), 2)
    with pytest.raises(TruncationTooLow):
        derivative_operator(C, (3,))


def test_well_defined_on_random_charts():
    rng = random.Random(1)
    V = circle_through_origin(FP)
    C = make_chart(V, (0, 0), 6)
    for r in range(5):
        D = derivative_operator(C, (r,))
        assert well_defined_check(C, D, trials=8, seed=rng.randint(0, 99))["pass"]
    f = parse_poly("1 * x1 x2", FP, 2)
    Vg = VarietySpec(kind="graph", ambient=3, dim=2, degree=2,
                     frame=AffineMap(FP, [[1, 1, 0], [0, 1, 0], [1, 0, 1]], [2, 0, 1]),
                     graph_polys=(f,))
    p = Vg.frame.inverse().apply([1, 2, 2])
    Cg = make_chart(Vg, p, 4)
    for gamma in ((1, 0), (1, 1), (2, 1)):
        D = derivative_operator(Cg, gamma)
        assert well_defined_check(Cg, D, trials=6, seed=3)["pass"]


def test_ambient_operator_evaluates_local_coefficient():
    # D^gamma g(center) equals the x^gamma coefficient of the local expansion
    V = circle_through_origin()
    C = make_chart(V, (0, 0), 6)
    rng = random.Random(2)
    for _ in range(5):
        terms = {}
        for e in monomials_upto(2, 4):
            c = rng.randint(-4, 4)
            if c:
                terms[e] = FQ.of(c)
        g = Polynomial(FQ, 2, terms)
        local = C.local_expansion(g)
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


def test_dim_regular_functions_graph_matches_raw():
    # parabola x2 = x1^2 as graph vs as raw slice
    f = parse_poly("1 * x1^2", FQ, 1)
    Vg = VarietySpec(kind="graph", ambient=2, dim=1, degree=2,
                     frame=AffineMap.identity(FQ, 2), graph_polys=(f,))
    for n in range(1, 5):
        # the parabola is a degree-2 rational curve: restriction of
        # F[x,y]_{<=n} has dimension 2n+1
        assert dim_regular_functions(Vg, n, FQ) == 2 * n + 1
    eq = parse_poly("1 * x2 + -1 * x1^2", FQ, 2)
    slice_polys = []
    for mono in monomials_upto(2, 1):
        slice_polys.append(eq * Polynomial.monomial(FQ, 2, mono))
    Vr = VarietySpec(kind="raw", ambient=2, dim=1, degree=2,
                     slice_polys=tuple(slice_polys), slice_degree=3)
    assert dim_regular_functions(Vr, 3, FQ) == 2 * 3 + 1


def test_ambient_equations_vanish_on_variety():
    V = circle_through_origin()
    for eq in ambient_equations(V):
        assert eq.evaluate([0, 0]) == 0
        assert eq.evaluate([Fraction(2, 5), Fraction(4, 5)]) != 0 or True
    f = parse_poly("1 * x1 x2", FQ, 2)
    Vg = VarietySpec(kind="graph", ambient=3, dim=2, degree=2,
                     frame=AffineMap.identity(FQ, 3), graph_polys=(f,))
    for eq in ambient_equations(Vg):
        assert eq.evaluate([2, 3, 6]) == 0


# -- serialization ----------------------------------------------------------


def test_variety_json_roundtrip():
    specs = [
        VarietySpec(kind="flat", ambient=3, dim=1, degree=1,
                    point=(FQ.of(1), FQ.of(0), FQ.of(2)),
                    directions=((FQ.of(1), FQ.of(1), FQ.of(0)),)),
        circle_through_origin(),
        VarietySpec(kind="graph", ambient=3, dim=2, degree=2,
                    frame=AffineMap.identity(FQ, 3),
                    graph_polys=(parse_poly("1 * x1 x2", FQ, 2),)),
        VarietySpec(kind="raw", ambient=2, dim=1, degree=1,
                    slice_polys=(parse_poly("1 * x1 + -1 * x2", FQ, 2),),
                    slice_degree=1),
    ]
    for V in specs:
        back = variety_from_json(variety_to_json(V, FQ), FQ)
        assert variety_to_json(back, FQ) == variety_to_json(V, FQ)
