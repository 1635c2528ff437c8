"""Sparse polynomials, Hasse calculus, affine maps."""

import random
from fractions import Fraction
from operator import mul

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jointslab.errors import MalformedInput, SingularMap
from jointslab.field import DEFAULT_PRIME, FieldSpec, binom
from jointslab.poly import (
    AffineMap,
    HasseOperator,
    Polynomial,
    affine_coordinates,
    binom_vec,
    conjugate_operator,
    expansion_row,
    exponents_of_degree,
    format_poly,
    grlex_key,
    hasse_apply,
    lowest_term,
    monomials_upto,
    parse_poly,
    polynomial_along,
    shifted_coordinates,
    taylor_shift,
    vanishing_order,
)
from jointslab.varieties import VarietySpec, make_chart
from jointslab.verify import joint_coordinates

from oracles import (
    apply,
    apply_operator,
    coefficient_in_field,
    compose,
    inverse,
    polynomial_in_field,
    pullback,
    substitute_through,
)

FQ = FieldSpec("rational")
FP = FieldSpec("prime", 101)
F2 = FieldSpec("prime", 2)
F3 = FieldSpec("prime", 3)


def random_poly(rng, F, nvars, deg, terms=6):
    monos = monomials_upto(nvars, deg)
    out = {}
    for _ in range(terms):
        e = rng.choice(monos)
        c = rng.randint(-9, 9) if F.kind == "rational" else rng.randrange(F.p)
        if c:
            out[e] = F.of(c)
    return Polynomial(F, nvars, out)


def to_sympy(g, xs):
    expr = 0
    for e, c in g.terms.items():
        term = sympy.Rational(c) if g.field.kind == "rational" else sympy.Integer(c)
        for x, k in zip(xs, e):
            term *= x**k
        expr += term
    return sympy.expand(expr)


# -- monomial enumeration ---------------------------------------------------


def test_exponents_of_degree():
    assert exponents_of_degree(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert exponents_of_degree(1, 3) == ((3,),)
    assert exponents_of_degree(3, 0) == ((0, 0, 0),)
    assert len(exponents_of_degree(3, 4)) == binom(4 + 2, 2)


def test_monomials_upto_graded_lex():
    monos = monomials_upto(2, 2)
    assert monos == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert list(monos) == sorted(monos, key=grlex_key)
    assert len(monomials_upto(6, 3)) == binom(9, 6)


# -- ring arithmetic vs sympy ----------------------------------------------


def test_arithmetic_matches_sympy():
    rng = random.Random(0)
    xs = sympy.symbols("x1:4")
    for _ in range(25):
        a = random_poly(rng, FQ, 3, 4)
        b = random_poly(rng, FQ, 3, 4)
        assert to_sympy(a + b, xs) == to_sympy(a, xs) + to_sympy(b, xs)
        assert to_sympy(a - b, xs) == to_sympy(a, xs) - to_sympy(b, xs)
        assert to_sympy(a * b, xs) == sympy.expand(to_sympy(a, xs) * to_sympy(b, xs))
        assert to_sympy(a * a, xs) == sympy.expand(to_sympy(a, xs) ** 2)


def test_degree_truncate_evaluate():
    g = parse_poly("2 * x1^3 + -1 * x1 x2 + 5", FQ, 2)
    assert g.degree == 3
    assert g.evaluate([1, 2]) == Fraction(2 - 2 + 5)
    assert Polynomial.zero(FQ, 2).degree == float("-inf")


def test_substitute_with_truncation():
    # substitution read through degree 5 must agree with full substitution
    # then truncate
    rng = random.Random(1)
    t = Polynomial.variable(FQ, 1, 0)
    for _ in range(10):
        g = random_poly(rng, FQ, 2, 3)
        h = random_poly(rng, FQ, 1, 4)
        full = g.substitute([t, h])
        full = Polynomial(FQ, 1, {e: c for e, c in full.terms.items() if sum(e) <= 5})
        lazy = substitute_through(g, [t, h], 5)
        assert full == lazy


def from_sympy(expr, F, ys):
    """The sympy polynomial expr in ys over F, each coefficient reduced
    into F."""
    terms = sympy.Poly(expr, *ys).terms()
    return Polynomial(F, len(ys), {e: F.of(Fraction(int(c.p), int(c.q))) for e, c in terms})


@pytest.mark.parametrize("F", [F2, F3, FieldSpec("prime", 2**31 - 1), FQ],
                         ids=["F2", "F3", "F2^31-1", "Q"])
def test_substitution_matches_sympy(F):
    # substitute, in full and through degree N, pullback, lowest_term,
    # taylor_shift and evaluate against sympy's expansion over Z or Q,
    # reduced into F
    rng = random.Random(11)
    for _ in range(8):
        d, m = rng.randint(1, 3), rng.randint(1, 2)
        xs, ts = sympy.symbols(f"x1:{d + 1}"), sympy.symbols(f"t1:{m + 1}")
        g = random_poly(rng, F, d, 4)
        images = [random_poly(rng, F, m, 3, terms=3) for _ in range(d)]
        full = from_sympy(to_sympy(g, xs).subs(
            {x: to_sympy(h, ts) for x, h in zip(xs, images)}, simultaneous=True).expand(), F, ts)
        assert g.substitute(images) == full
        N = rng.randint(0, 6)
        truncated = Polynomial(F, m, {e: c for e, c in full.terms.items() if sum(e) <= N})
        assert substitute_through(g, images, N) == truncated
        a = [rng.randint(-3, 3) for _ in range(d)]
        shifted = {x: x + ai for x, ai in zip(xs, a)}
        assert taylor_shift(g, a) == from_sympy(
            to_sympy(g, xs).subs(shifted, simultaneous=True).expand(), F, xs)
        assert g.evaluate(a) == F.of(Fraction(str(to_sympy(g, xs).subs(dict(zip(xs, a))))))
        try:
            T = AffineMap(F, [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)], a)
        except SingularMap:
            continue
        moved = {x: sum(int(c) * y for c, y in zip(row, xs)) + int(b)
                 for x, row, b in zip(xs, T.matrix, T.translation)}
        moved_g = from_sympy(to_sympy(g, xs).subs(moved, simultaneous=True).expand(), F, xs)
        assert pullback(g, T) == moved_g
        if not g.is_zero():
            gamma = min(moved_g.terms, key=grlex_key)
            assert lowest_term(g, affine_coordinates(T.matrix, T.translation)) == (
                gamma, moved_g.terms[gamma])


def joint_charts(F):
    """p = (1, 0, 1) and the charts there of a line, a graph curve and a
    hypersurface curve of F^3, each moving every coordinate along its
    local variable, so that their joint coordinates share the exponents
    of degree 1 and hold higher ones of the two curves."""
    p = (1, 0, 1)
    A = [[1, 0, 0], [-1, 1, 0], [0, -1, 1]]  # its inverse's first column is (1, 1, 1)
    members = [
        VarietySpec(kind="flat", ambient=3, dim=1, degree=1, point=p, directions=((1, 1, 1),)),
        VarietySpec(kind="graph", ambient=3, dim=1, degree=3,
                    frame=AffineMap(F, A, [-sum(map(mul, row, p)) for row in A]),
                    graph_polys=(parse_poly("1 * x1^2", F, 1),
                                 parse_poly("1 * x1^2 + 1 * x1^3", F, 1))),
        VarietySpec(kind="hypersurface", ambient=3, dim=1, degree=2, point=p,
                    directions=((1, 0, 0), (0, 1, 1)),
                    surface_poly=parse_poly("1 * x1 + 1 * x2 + 1 * x2^2 + 1 * x1 x2", F, 2)),
    ]
    return p, [make_chart(V, p, F) for V in members]


@pytest.mark.parametrize("F", [F2, FP, FQ], ids=["F2", "F101", "Q"])
def test_expansion_rows_along_joint_coordinates_match_sympy(F):
    # [t^gamma] x^delta along the joint coordinates of three charts, built
    # from the top gamma down through the shared memo, against sympy's
    # coefficient over Z or Q reduced into F; many gamma have zero entries
    p, charts = joint_charts(F)
    coords = joint_coordinates(list(p), [(1, C.coordinates(4)) for C in charts])
    assert all(e in x for x in coords for e in exponents_of_degree(3, 1))
    ts = sympy.symbols("t1:4")
    xs = [sympy.Poly(sum(sympy.Rational(c) * sympy.prod(t**b for t, b in zip(ts, beta))
                         for beta, c in x.items()), *ts) for x in coords]
    n, memo = 3, {}
    products = [from_sympy(sympy.prod(x**e for x, e in zip(xs, delta)).as_expr(), F, ts)
                for delta in monomials_upto(3, n)]
    for gamma in reversed(monomials_upto(3, 4)):
        expected = [g.coefficient(gamma) for g in products]
        assert [F.of(c) for c in expansion_row(F, coords, n, gamma, memo)] == expected


# -- text form --------------------------------------------------------------


def test_format_parse_roundtrip():
    rng = random.Random(2)
    for F in (FQ, FP):
        for _ in range(20):
            g = random_poly(rng, F, 3, 5)
            assert parse_poly(format_poly(g), F, 3) == g
    assert format_poly(Polynomial.zero(FQ, 2)) == "0"
    assert parse_poly("0", FQ, 2).is_zero()
    assert parse_poly("x2^3", FQ, 2) == Polynomial.monomial(FQ, 2, (0, 3))
    assert parse_poly("-3/2 * x1", FQ, 2) == Polynomial.monomial(FQ, 2, (1, 0), Fraction(-3, 2))


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError):
        parse_poly("1 * x3", FQ, 2)


@pytest.mark.parametrize("F", [FQ, FP, FieldSpec("prime", DEFAULT_PRIME)],
                         ids=["Q", "F101", "Fp"])
def test_parse_inverts_format_with_signed_fractions(F):
    rng = random.Random(4)
    for _ in range(30):
        terms = {}
        for e in rng.sample(monomials_upto(3, 4), 5):
            c = F.of(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
            if c:
                terms[e] = c
        g = Polynomial(F, 3, terms)
        assert parse_poly(format_poly(g), F, 3) == g
    assert parse_poly("-3/2 * x1 x3^2 + -1", F, 3) == Polynomial(
        F, 3, {(1, 0, 2): F.of(Fraction(-3, 2)), (0, 0, 0): F.of(-1)})


@pytest.mark.parametrize("text", [
    "2 x1",            # juxtaposition instead of '*'
    "2x1",
    "1 * x1 - 1",      # '-' as an operator
    "1 * y1",          # unknown name
    "1 * x0",          # index outside the ring
    "1 * x3",
    "1 * x1^-1",       # exponent below 1
    "1 * x1^0",
    "1 *",             # '*' without a monomial
    "1 + + 2",
    "1/0 * x1",
    "x1 * x2",
])
def test_parse_rejects_malformed_text(text):
    with pytest.raises(MalformedInput):
        parse_poly(text, FQ, 2)


# -- Hasse calculus ---------------------------------------------------------


def test_hasse_on_monomial():
    g = Polynomial.monomial(FQ, 2, (3, 2))
    got = hasse_apply((1, 1), g)
    assert got == Polynomial.monomial(FQ, 2, (2, 1), binom(3, 1) * binom(2, 1))
    assert hasse_apply((4, 0), g).is_zero()


def test_hasse_matches_scaled_derivative():
    # over the rationals, Hasse^w = (1/w!) d^w/dx^w
    rng = random.Random(3)
    xs = sympy.symbols("x1:3")
    for _ in range(10):
        g = random_poly(rng, FQ, 2, 5)
        for w in ((1, 0), (0, 2), (2, 1)):
            expr = to_sympy(g, xs)
            for x, k in zip(xs, w):
                expr = sympy.diff(expr, x, k)
            fact = 1
            for k in w:
                fact *= sympy.factorial(k)
            assert to_sympy(hasse_apply(w, g), xs) == sympy.expand(expr / fact)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_taylor_identity(data):
    # g(a + y) has y^w coefficient (Hasse^w g)(a)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    d = rng.randint(1, 3)
    g = random_poly(rng, FP, d, 5)
    a = [FP.of(rng.randrange(FP.p)) for _ in range(d)]
    shifted = taylor_shift(g, a)
    for w in monomials_upto(d, max(0, int(g.degree) if not g.is_zero() else 0)):
        assert shifted.coefficient(w) == hasse_apply(w, g).evaluate(a)


def test_hasse_composition_rule():
    for a, b in (((1, 0), (2, 0)), ((1, 1), (0, 2)), ((2, 0), (0, 0))):
        got = HasseOperator(FQ, 2, {a: FQ.one}).compose(HasseOperator(FQ, 2, {b: FQ.one}))
        w = tuple(x + y for x, y in zip(a, b))
        assert got.combo == {w: FQ.of(binom_vec(w, a))}


def test_hasse_composition_in_small_characteristic():
    F2 = FieldSpec("prime", 2)
    # Hasse^(1) Hasse^(1) = C(2,1) Hasse^(2) = 0 in characteristic 2
    H1 = HasseOperator(F2, 1, {(1,): F2.one})
    got = H1.compose(H1)
    assert not got.combo


def test_operator_compose_commutes_and_matches_apply():
    rng = random.Random(4)
    for _ in range(10):
        A = HasseOperator(FQ, 2, {(1, 0): FQ.of(rng.randint(-5, 5)), (0, 1): FQ.of(2)})
        B = HasseOperator(FQ, 2, {(2, 0): FQ.of(3), (0, 0): FQ.of(rng.randint(-5, 5))})
        g = random_poly(rng, FQ, 2, 5)
        assert A.compose(B).combo == B.compose(A).combo
        assert apply_operator(A.compose(B), g) == apply_operator(A, apply_operator(B, g))


def test_operator_evaluate_and_functional():
    # apply_operator goes through hasse_apply's binomials, a path apart from the
    # expansion rows behind D.evaluate; over F_2 and F_3 exponents up to 5
    # meet orders up to 3, where C(e, w) vanishes mod p
    rng = random.Random(5)
    for F in (FQ, F2, F3):
        combo = {(1, 0): 2, (0, 1): -1, (0, 0): 3, (2, 0): 1, (2, 1): -1, (0, 3): 1}
        D = HasseOperator(F, 2, {w: F.of(c) for w, c in combo.items()})
        for _ in range(10):
            g = random_poly(rng, F, 2, 5)
            pt = [F.of(rng.randint(-3, 3)) for _ in range(2)]
            assert D.evaluate(g, pt) == apply_operator(D, g).evaluate(pt)
        for delta in monomials_upto(2, 5):
            mono = Polynomial.monomial(F, 2, delta)
            value = D.monomial_functional(delta, [F.of(2), F.of(3)])
            assert value == D.evaluate(mono, [2, 3]) == apply_operator(D, mono).evaluate([2, 3])


def test_leading_part_and_order():
    D = HasseOperator(FQ, 2, {(2, 0): FQ.one, (0, 1): FQ.one, (0, 0): FQ.one})
    assert D.order == 2
    assert {w: c for w, c in D.combo.items() if sum(w) == D.order} == {(2, 0): FQ.one}
    assert HasseOperator(FQ, 2).order == float("-inf")


# -- affine maps ------------------------------------------------------------


def test_affine_map_singular_rejected():
    from jointslab.errors import SingularMap

    with pytest.raises(SingularMap):
        AffineMap(FQ, [[1, 2], [2, 4]], [0, 0])


def test_affine_map_requires_square_matrix():
    from jointslab.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        AffineMap(FQ, [[1, 0, 0], [0, 1, 0]], [0, 0])
    with pytest.raises(DimensionMismatch):
        AffineMap(FQ, [[1, 0], [0, 1], [0, 0]], [0, 0])


def test_affine_apply_compose_inverse():
    T = AffineMap(FQ, [[1, 2], [0, 1]], [3, -1])
    S = AffineMap(FQ, [[0, 1], [1, 0]], [1, 1])
    p = [Fraction(2), Fraction(5)]
    assert apply(compose(S, T), p) == apply(S, apply(T, p))
    assert apply(inverse(T), apply(T, p)) == p


def test_pullback_is_composition():
    rng = random.Random(6)
    T = AffineMap(FQ, [[2, 1], [1, 1]], [1, -2])
    for _ in range(10):
        g = random_poly(rng, FQ, 2, 4)
        p = [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))]
        assert pullback(g, T).evaluate(p) == g.evaluate(apply(T, p))
        assert pullback(g, T).degree == g.degree  # affine maps preserve degree


def test_vanishing_order():
    g = parse_poly("1 * x1^2 + 1 * x1 x2^3", FQ, 2)
    assert vanishing_order(g, [0, 0]) == 2
    assert vanishing_order(g, [1, 1]) == 0
    assert vanishing_order(Polynomial.zero(FQ, 2), [0, 0]) == float("inf")


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_vanishing_order_additive(seed):
    rng = random.Random(seed)
    a = random_poly(rng, FQ, 2, 3)
    b = random_poly(rng, FQ, 2, 3)
    if a.is_zero() or b.is_zero():
        return
    p = [Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))]
    assert vanishing_order(a * b, p) == vanishing_order(a, p) + vanishing_order(b, p)


BIG = 10**40


def big_fraction(rng):
    """A rational with numerator and denominator of up to 40 digits."""
    return Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))


def big_poly(rng, nvars, deg, dense):
    """Every monomial of degree <= deg (dense) or one to four of them
    (sparse), each with a ``big_fraction`` coefficient."""
    monos = monomials_upto(nvars, deg)
    chosen = monos if dense else rng.sample(monos, min(len(monos), rng.randint(1, 4)))
    return Polynomial(FQ, nvars, {e: big_fraction(rng) for e in chosen})


def big_coordinates(rng, d, nt, top):
    """d {beta: c} maps over nt variables with terms of degree <= top, the
    constant among them: most values ``big_fraction``s, some ints."""
    out = []
    for _ in range(d):
        x = {}
        for beta in monomials_upto(nt, top):
            if rng.random() < 0.7:
                c = big_fraction(rng) if rng.random() < 0.7 else rng.randint(-9, 9)
                if c:
                    x[beta] = c
        out.append(x)
    return out


# (variables, degree, dense) of each random g
READER_CASES = [(1, 5, True), (2, 5, True), (3, 4, True), (4, 3, True), (4, 2, True),
                (1, 4, False), (2, 5, False), (3, 5, False), (4, 5, False), (4, 4, False),
                (3, 1, False), (2, 3, True)]


@pytest.mark.parametrize("seed", range(len(READER_CASES)))
def test_integer_reader_matches_the_field_reader(seed):
    # over Q every reader through coefficient_along reads its rows in ints
    # along D phi, D clearing the coordinates' denominators; read in
    # Fractions along phi itself, every value is the same
    rng = random.Random(seed)
    nvars, deg, dense = READER_CASES[seed]
    g = big_poly(rng, nvars, deg, dense)
    nt = rng.randint(1, 2)
    coords = big_coordinates(rng, nvars, nt, 2 if nvars * deg <= 8 else 1)
    assert polynomial_along(g, coords, nt) == polynomial_in_field(g, coords, nt)
    a = [big_fraction(rng) if rng.random() < 0.8 else Fraction(rng.randint(-3, 3))
         for _ in range(nvars)]
    shifted = polynomial_in_field(g, shifted_coordinates(a), nvars)
    assert taylor_shift(g, a) == shifted
    assert g.evaluate(a) == coefficient_in_field(g, [{(): x} for x in a], (), {})
    assert g.evaluate(a) == shifted.coefficient((0,) * nvars)
    # g - g(a), times the first coordinate shifted to a, vanishes to order
    # >= 2 at a, so lowest_term reads past the t^0 coefficient
    x1 = Polynomial.variable(FQ, nvars, 0) - Polynomial.constant(FQ, nvars, a[0])
    for f in (g, (g - Polynomial.constant(FQ, nvars, g.evaluate(a))) * x1):
        if f.is_zero():
            continue
        A = [[big_fraction(rng) for _ in range(nvars)] for _ in range(nvars)]
        along, memo = affine_coordinates(A, a), {}
        assert lowest_term(f, along) == next(
            (w, c) for r in range(deg + 2) for w in exponents_of_degree(nvars, r)
            if (c := coefficient_in_field(f, along, w, memo)))
        at_a = polynomial_in_field(f, shifted_coordinates(a), nvars)
        assert vanishing_order(f, a) == min(map(sum, at_a.terms))


def test_conjugate_operator_definition():
    # D' g = (D (g o T)) o T^{-1}, checked pointwise on random inputs
    rng = random.Random(7)
    T = AffineMap(FQ, [[1, 1], [0, 2]], [3, 1])
    D = HasseOperator(FQ, 2, {(2, 0): FQ.one, (1, 1): FQ.of(-2), (0, 1): FQ.of(3)})
    Dp = conjugate_operator(D, T)
    for _ in range(10):
        g = random_poly(rng, FQ, 2, 4)
        p = [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))]
        lhs = apply_operator(Dp, g).evaluate(p)
        rhs = apply_operator(D, pullback(g, T)).evaluate(apply(inverse(T), p))
        assert lhs == rhs


@pytest.mark.parametrize("F", [FieldSpec("prime", 2), FieldSpec("prime", 3), FQ],
                         ids=["F2", "F3", "Q"])
def test_conjugate_operator_definition_as_polynomials(F):
    # D' g = (D (g o T)) o T^{-1} as polynomials, which in small
    # characteristic is stronger than agreeing at the field's points
    rng = random.Random(9)
    T = AffineMap(F, [[2, 1], [3, 1]], [3, 1])
    D = HasseOperator(F, 2, {(1, 2): F.one, (2, 0): F.one, (1, 1): F.of(-1),
                             (0, 1): F.one, (0, 0): F.of(5)})
    Dp = conjugate_operator(D, T)
    for _ in range(10):
        g = random_poly(rng, F, 2, 5)
        assert apply_operator(Dp, g) == pullback(apply_operator(D, pullback(g, T)), inverse(T))


def test_conjugate_operator_is_homomorphism():
    rng = random.Random(8)
    T = AffineMap(FQ, [[2, 1], [1, 1]], [0, 5])
    A = HasseOperator(FQ, 2, {(1, 0): FQ.one, (0, 1): FQ.of(2)})
    B = HasseOperator(FQ, 2, {(0, 1): FQ.of(3), (0, 0): FQ.one})
    lhs = conjugate_operator(A.compose(B), T)
    rhs = conjugate_operator(A, T).compose(conjugate_operator(B, T))
    assert lhs.combo == rhs.combo
