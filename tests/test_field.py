"""Scalar arithmetic over prime fields and the rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointslab.errors import DivisionByZero
from jointslab.field import (
    DEFAULT_PRIME,
    FieldSpec,
    binom,
    is_prime,
)

FP = FieldSpec("prime", 101)
FQ = FieldSpec("rational")


def test_is_prime_small_range():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_default_prime_is_prime():
    assert is_prime(DEFAULT_PRIME)


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec("prime", 91)
    with pytest.raises(ValueError):
        FieldSpec("prime", 1 << 62)
    with pytest.raises(ValueError):
        FieldSpec("rational", 7)
    with pytest.raises(ValueError):
        FieldSpec("real")


def test_coercion_canonical():
    assert FP.of(-1) == 100
    assert FP.of(Fraction(1, 2)) == FP.div(1, 2)
    assert FP.of("3/4") == FP.div(3, 4)
    assert FQ.of("3/4") == Fraction(3, 4)
    assert FQ.of(5) == Fraction(5)


def _of_reference(F, x):
    """FieldSpec.of without its exact-type fast paths."""
    if isinstance(x, bool):
        raise ValueError("a boolean is not a field element")
    if isinstance(x, str):
        x = Fraction(x)
    if F.kind == "prime":
        if isinstance(x, Fraction):
            return F.div(x.numerator % F.p, x.denominator % F.p)
        return int(x) % F.p
    return Fraction(x)


def _outcome(f, *args):
    try:
        value = f(*args)
    except (DivisionByZero, ValueError) as exc:
        return type(exc).__name__
    return value, type(value)


@given(F=st.sampled_from([FieldSpec("prime", 3), FP, FieldSpec("prime", DEFAULT_PRIME), FQ]),
       x=st.one_of(st.integers(), st.integers(-1000, 1000), st.booleans(),
                   st.fractions(), st.fractions().map(str)))
@settings(max_examples=400, deadline=None)
def test_of_matches_reference(F, x):
    # ints (negative, >= p), bools, Fractions and strings in both field
    # kinds: equal value and type, or the same error
    assert _outcome(F.of, x) == _outcome(_of_reference, F, x)


def test_of_rejects_floats():
    # a float is a binary approximation, not an exact field value
    for F in (FP, FQ):
        for x in (0.25, 0.5, 1.0, float("nan")):
            with pytest.raises(ValueError):
                F.of(x)


def test_of_rejects_booleans():
    # JSON's true and false are no numbers, though Python's bools are ints
    for F in (FP, FQ):
        for x in (True, False):
            with pytest.raises(ValueError):
                F.of(x)


def test_from_json_rejects_unknown_kinds_and_stray_moduli():
    for obj in ({"kind": "prme", "p": 7}, {"p": 7}, {}, {"kind": "rational", "p": 7}, "rational"):
        with pytest.raises(ValueError):
            FieldSpec.from_json(obj)


@given(a=st.integers(-500, 500), b=st.integers(-500, 500), c=st.integers(-500, 500))
@settings(max_examples=200, deadline=None)
def test_field_axioms(a, b, c):
    for F in (FP, FQ):
        x, y, z = F.of(a), F.of(b), F.of(c)
        assert F.add(x, y) == F.add(y, x)
        assert F.mul(x, y) == F.mul(y, x)
        assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
        assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
        assert F.add(x, F.neg(x)) == F.zero
        assert F.sub(x, y) == F.add(x, F.neg(y))
        if y != F.zero:
            assert F.mul(F.div(x, y), y) == x
            assert F.mul(y, F.inv(y)) == F.one


def test_division_by_zero():
    for F in (FP, FQ):
        with pytest.raises(DivisionByZero):
            F.inv(F.zero)
        with pytest.raises(DivisionByZero):
            F.div(F.one, F.zero)


@given(a=st.integers(0, 10**9), e=st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_pow_matches_repeated_mul(a, e):
    x = FP.of(a)
    acc = FP.one
    for _ in range(min(e, 12)):
        acc = FP.mul(acc, x)
    if e <= 12:
        assert FP.pow(x, e) == acc


def test_binom_edge_cases():
    assert binom(5, 0) == 1
    assert binom(5, 5) == 1
    assert binom(5, 6) == 0
    assert binom(5, -1) == 0
    assert binom(-2, 0) == 0


@given(n=st.integers(1, 200), k=st.integers(0, 200))
@settings(max_examples=200, deadline=None)
def test_pascal_rule(n, k):
    assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def test_binomial_in_small_characteristic():
    F5 = FieldSpec("prime", 5)
    # C(5, k) = 0 mod 5 for 0 < k < 5; computing factorials mod p first
    # would divide by zero instead
    for k in range(1, 5):
        assert F5.of(binom(5, k)) == 0
    assert F5.of(binom(5, 0)) == 1
    assert F5.of(binom(6, 3)) == 20 % 5


def test_json_roundtrip():
    for F in (FP, FQ):
        assert FieldSpec.from_json(F.to_json()) == F
