"""Exact dense linear algebra against sympy oracles."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jointslab.field import FieldSpec
from jointslab.linalg import (
    IncrementalRowReducer,
    complete_basis,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    solve,
)

FQ = FieldSpec("rational")
FP = FieldSpec("prime", 101)


def random_matrix(rng, F, m, n):
    if F.kind == "prime":
        return [[F.of(rng.randrange(F.p)) for _ in range(n)] for _ in range(m)]
    return [[F.of(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)]


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_rank_and_det_match_sympy(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    A = random_matrix(rng, FQ, m, n)
    S = sympy.Matrix([[sympy.Rational(a) for a in row] for row in A])
    assert rank(FQ, A) == S.rank()
    if m == n:
        inv = inverse(FQ, A)
        if S.det() == 0:
            assert inv is None
        else:
            assert inv == [[Fraction(a) for a in row] for row in S.inv().tolist()]


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_inverse_and_solve(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    A = random_matrix(rng, FP, n, n)
    inv = inverse(FP, A)
    if rank(FP, A) < n:
        assert inv is None
        return
    assert mat_mul(FP, A, inv) == identity(FP, n)
    b = [FP.of(rng.randrange(FP.p)) for _ in range(n)]
    x = solve(FP, A, b)
    assert mat_vec(FP, A, x) == b


def test_solve_inconsistent_and_underdetermined():
    A = [[FQ.of(1), FQ.of(1)], [FQ.of(2), FQ.of(2)]]
    assert solve(FQ, A, [FQ.of(1), FQ.of(3)]) is None
    x = solve(FQ, [[FQ.of(1), FQ.of(1)]], [FQ.of(4)])
    assert x is not None and x[0] + x[1] == 4


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_nullspace(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 5)
    A = random_matrix(rng, FQ, m, n)
    basis = nullspace(FQ, A)
    assert len(basis) == n - rank(FQ, A)
    for v in basis:
        assert all(x == 0 for x in mat_vec(FQ, A, v))
    assert rank(FQ, basis) == len(basis)


def test_complete_basis():
    vecs = [[FQ.of(1), FQ.of(1), FQ.of(0)]]
    basis = complete_basis(FQ, vecs, 3)
    assert len(basis) == 3 and rank(FQ, basis) == 3
    assert basis[0] == vecs[0]
    with pytest.raises(ValueError):
        complete_basis(FQ, [[FQ.of(1), FQ.of(0)], [FQ.of(2), FQ.of(0)]], 2)


def test_incremental_reducer_streaming():
    rng = random.Random(3)
    red = IncrementalRowReducer(FP)
    rows = random_matrix(rng, FP, 8, 5)
    seen = []
    for row in rows:
        grew = red.insert(row)
        seen.append(row)
        assert red.rank == rank(FP, seen)
        assert red.in_span(row)
        if not grew:
            # a dependent row reduces to zero
            assert all(not a for a in red.reduce(row))
    combo = [FP.zero] * 5
    for row in rows[:3]:
        c = FP.of(rng.randrange(FP.p))
        combo = [FP.add(a, FP.mul(c, b)) for a, b in zip(combo, row)]
    assert red.in_span(combo)
