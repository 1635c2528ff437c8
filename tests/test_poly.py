"""Sparse polynomials, Hasse calculus, affine maps."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jointslab.field import FieldSpec, binom
from jointslab.poly import (
    AffineMap,
    HasseOperator,
    Polynomial,
    binom_vec,
    conjugate_operator,
    exponents_of_degree,
    format_poly,
    grlex_key,
    hasse_apply,
    monomials_upto,
    parse_poly,
    pullback,
    taylor_shift,
    vanishing_order,
)

FQ = FieldSpec("rational")
FP = FieldSpec("prime", 101)


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
        assert to_sympy(a**2, xs) == sympy.expand(to_sympy(a, xs) ** 2)


def test_degree_truncate_evaluate():
    g = parse_poly("2 * x1^3 + -1 * x1 x2 + 5", FQ, 2)
    assert g.degree == 3
    assert g.truncate(2).degree == 2
    assert g.truncate(0) == Polynomial.constant(FQ, 2, 5)
    assert g.evaluate([1, 2]) == Fraction(2 - 2 + 5)
    assert Polynomial.zero(FQ, 2).degree == float("-inf")


def test_substitute_with_truncation():
    # running truncation must agree with full substitution then truncate
    rng = random.Random(1)
    t = Polynomial.variable(FQ, 1, 0)
    for _ in range(10):
        g = random_poly(rng, FQ, 2, 3)
        h = random_poly(rng, FQ, 1, 4)
        full = g.substitute([t, h]).truncate(5)
        lazy = g.substitute([t, h], truncation=5)
        assert full == lazy


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
        got = HasseOperator.single(FQ, 2, a).compose(HasseOperator.single(FQ, 2, b))
        w = tuple(x + y for x, y in zip(a, b))
        assert got.combo == {w: FQ.of(binom_vec(w, a))}


def test_hasse_composition_in_small_characteristic():
    F2 = FieldSpec("prime", 2)
    # Hasse^(1) Hasse^(1) = C(2,1) Hasse^(2) = 0 in characteristic 2
    H1 = HasseOperator.single(F2, 1, (1,))
    got = H1.compose(H1)
    assert got.is_zero()


def test_operator_compose_commutes_and_matches_apply():
    rng = random.Random(4)
    for _ in range(10):
        A = HasseOperator(FQ, 2, {(1, 0): FQ.of(rng.randint(-5, 5)), (0, 1): FQ.of(2)})
        B = HasseOperator(FQ, 2, {(2, 0): FQ.of(3), (0, 0): FQ.of(rng.randint(-5, 5))})
        g = random_poly(rng, FQ, 2, 5)
        assert A.compose(B).combo == B.compose(A).combo
        assert A.compose(B).apply(g) == A.apply(B.apply(g))


def test_operator_evaluate_and_functional():
    rng = random.Random(5)
    D = HasseOperator(FQ, 2, {(1, 0): FQ.of(2), (0, 1): FQ.of(-1), (0, 0): FQ.of(3)})
    for _ in range(10):
        g = random_poly(rng, FQ, 2, 4)
        pt = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        assert D.evaluate(g, pt) == D.apply(g).evaluate(pt)
    for delta in monomials_upto(2, 3):
        mono = Polynomial.monomial(FQ, 2, delta)
        assert D.monomial_functional(delta, [Fraction(2), Fraction(3)]) == D.evaluate(
            mono, [2, 3]
        )


def test_top_part_and_order():
    D = HasseOperator(FQ, 2, {(2, 0): FQ.one, (0, 1): FQ.one, (0, 0): FQ.one})
    assert D.order == 2
    assert D.top_part().combo == {(2, 0): FQ.one}
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
    assert S.compose(T).apply(p) == S.apply(T.apply(p))
    assert T.inverse().apply(T.apply(p)) == p


def test_pullback_is_composition():
    rng = random.Random(6)
    T = AffineMap(FQ, [[2, 1], [1, 1]], [1, -2])
    for _ in range(10):
        g = random_poly(rng, FQ, 2, 4)
        p = [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))]
        assert pullback(g, T).evaluate(p) == g.evaluate(T.apply(p))
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


def test_conjugate_operator_definition():
    # D' g = (D (g o T)) o T^{-1}, checked pointwise on random inputs
    rng = random.Random(7)
    T = AffineMap(FQ, [[1, 1], [0, 2]], [3, 1])
    D = HasseOperator(FQ, 2, {(2, 0): FQ.one, (1, 1): FQ.of(-2), (0, 1): FQ.of(3)})
    Dp = conjugate_operator(D, T)
    for _ in range(10):
        g = random_poly(rng, FQ, 2, 4)
        p = [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))]
        lhs = Dp.apply(g).evaluate(p)
        rhs = D.apply(pullback(g, T)).evaluate(T.inverse().apply(p))
        assert lhs == rhs


def test_conjugate_operator_is_homomorphism():
    rng = random.Random(8)
    T = AffineMap(FQ, [[2, 1], [1, 1]], [0, 5])
    A = HasseOperator(FQ, 2, {(1, 0): FQ.one, (0, 1): FQ.of(2)})
    B = HasseOperator(FQ, 2, {(0, 1): FQ.of(3), (0, 0): FQ.one})
    lhs = conjugate_operator(A.compose(B), T)
    rhs = conjugate_operator(A, T).compose(conjugate_operator(B, T))
    assert lhs.combo == rhs.combo
